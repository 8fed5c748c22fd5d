"""Bound-state quantization conditions, dispersions, and asymptotics.

Every discrete family reduces to a polynomial condition in the energy once
the defining transcendental condition is squared; candidates are all
polynomial roots, and admissibility flags record (i) the polynomial residual,
(ii) reality of every square-root subexpression, (iii) whether the unsquared
condition holds with the principal square-root sign (both signs are kept and
the realized sign recorded), and (iv) a decay diagnostic for the assembled
state: the family's decay rule, asked only where (ii) holds.  No root is
silently discarded.

The DIII_V1 quartic is solved by companion-matrix eigenvalues polished with
Newton steps.  DIV_V3 is the exception to squaring: its one transcendental
condition increases with E where c3 >= c2 and stays below -2 where c3 < c2,
so it has a root exactly when it is positive at the top of its window.  One
bracket, its depth doubled below that top, is polished by bisection and
secant steps; the residual is the normalized gap, the unsquared sign +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoRootError, ParamError
from .families import FAMILIES
from .potentials import PotentialSpec


@dataclass(frozen=True)
class QuantumNumbers:
    """Pair of separation quantum numbers and the counting scheme they use."""

    n: int
    l: int
    scheme: str = "uv"

    def __post_init__(self):
        if self.n < 0:
            raise ParamError("n must be non-negative")


@dataclass
class EnergyRoots:
    """All candidate energies plus the admissibility record per real root."""

    candidates: list
    admissible: list = field(default_factory=list)


def _quad_roots(A, B, C):
    """Roots of A E^2 + B E + C, cancellation-stable for the small root."""
    if A == 0.0:
        if B == 0.0:
            return []
        return [-C / B]
    disc = complex(B * B - 4.0 * A * C) ** 0.5
    if B.real >= 0 or B.imag != 0:
        q = -0.5 * (B + disc)
    else:
        q = -0.5 * (B - disc)
    if q == 0:
        return [0.0j, -B / A]
    return [q / A, C / q]


def _poly_roots(coeffs):
    """All roots of one branch: companion matrix plus Newton polish above
    degree 2, the cancellation-stable closed form otherwise."""
    if len(coeffs) > 3:
        # the coefficients and derivative that np.poly1d would hold (leading
        # zeros trimmed), built once for all the roots
        p = np.trim_zeros(np.atleast_1d(coeffs), "f")
        dp = p[:-1] * np.arange(len(p) - 1, 0, -1)
        return [complex(_polish_poly_root(p, dp, z)) for z in np.roots(coeffs)]
    return _quad_roots(*(0.0,) * (3 - len(coeffs)), *coeffs)


def _horner(coeffs, x):
    """np.polyval(coeffs, x) operation for operation, at a 0-d array x."""
    y = np.zeros((), x.dtype)
    for c in coeffs:
        y = y * x + c
    return y


def _polish_poly_root(p, dp, z):
    for _ in range(8):
        x = np.asanyarray(z)
        d = _horner(dp, x)
        if d == 0:
            break
        z = z - _horner(p, x) / d
    return z


def quantization_residual(spec: PotentialSpec, qn: QuantumNumbers, E) -> float:
    """Residual of the family's squared (polynomial) quantization condition,
    normalized by the magnitude of its largest term (the smallest over the
    branches); for a transcendental condition, its gap over 1 + |E|."""
    E = complex(E)
    rec = FAMILIES[spec.family]
    if rec.transcendental:
        return abs(rec.gap(spec, qn, E.real)) / (1.0 + abs(E.real))
    res = []
    for co in rec.branches(spec, qn):
        terms = [c * E ** (len(co) - 1 - k) for k, c in enumerate(co)]
        res.append(abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300))
    return min(res)


def admissibility_check(spec: PotentialSpec, qn: QuantumNumbers, E: float) -> dict:
    """The three admissibility ingredients for a real candidate energy."""
    rec = FAMILIES[spec.family]
    res = quantization_residual(spec, qn, E)
    try:
        gaps = rec.unsquared_gap(spec, qn, E)
    except DomainError:  # a square root of the condition went complex
        gaps = None
    sqrt_ok = gaps is not None
    plus_ok, minus_ok = (g < 1e-7 for g in gaps) if sqrt_ok else (False, False)
    return {
        "E": float(E),
        "residual": float(res),
        "sqrt_real": bool(sqrt_ok),
        "satisfies_unsquared": bool(plus_ok or minus_ok),
        "unsquared_sign": +1 if plus_ok else (-1 if minus_ok else 0),
        "decaying_wavefunction": bool(sqrt_ok and rec.decays(spec, qn, E)),
        "admissible": bool(res < 1e-9 and sqrt_ok),
    }


def solve_quantization(spec: PotentialSpec, qn: QuantumNumbers) -> EnergyRoots:
    """All candidate energies of the condition at qn, once ``Family.check`` takes qn."""
    rec = FAMILIES[spec.family]
    rec.check(qn)

    if rec.transcendental:
        cands = _one_root(spec, qn, rec)
    else:
        cands = [z for co in rec.branches(spec, qn) for z in _poly_roots(co)]
    out = EnergyRoots(candidates=[complex(z) for z in cands])
    for z in out.candidates:
        if abs(z.imag) < 1e-10 * (1.0 + abs(z.real)):
            out.admissible.append(admissibility_check(spec, qn, z.real))
    return out


def _one_root(spec: PotentialSpec, qn: QuantumNumbers, rec):
    """The root of a transcendental condition, which exists exactly when it is
    positive at the top of the record's first bracket (see ``DIV_V3``).  The
    bracket's depth doubles until the condition is not positive at its lower
    end, and that one bracket is bisected and secant-polished."""
    e_lo, top = rec.first_bracket(spec)

    def func(E):
        return rec.gap(spec, qn, E)

    if not func(top) > 0:
        raise NoRootError(f"{spec.family} bracket scan found no sign change")
    e_hi = top
    while func(e_lo) > 0:
        e_lo, e_hi = 2.0 * e_lo - top, e_lo
    lo, hi = e_lo, e_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = func(mid)
        if fm == 0 or hi - lo < 1e-14 * (1.0 + abs(mid)):
            break
        lo, hi = (lo, mid) if fm > 0 else (mid, hi)
    # secant polish
    x0, x1 = lo, hi
    f0, f1 = func(x0), func(x1)
    for _ in range(30):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not e_lo <= x2 <= e_hi:
            break
        x0, f0, x1, f1 = x1, f1, x2, func(x2)
    return [round(x1, 12)]


def continuous_dispersion(spec: PotentialSpec, p: float, aux=None) -> float:
    """Continuous-branch energy E_p of the family (aux picks the chart form
    where two chart forms exist: None/'uv' or 'degelliptic')."""
    if p < 0:
        raise ParamError("momentum label p must be non-negative")
    return FAMILIES[spec.family].dispersion(spec, p, aux)


def asymptotic_spectrum(spec: PotentialSpec, qn: QuantumNumbers, branch: str) -> float:
    """Large-quantum-number limit of the bound spectrum (DIII V2/V3/V5).

    The deep root is 'minus' for V2/V3 and 'plus' for V5, the labels of the
    closed forms; the other label is the shallow root.
    """
    return FAMILIES[spec.family].asymptotic(spec, qn, branch)
