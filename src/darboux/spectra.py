"""Bound-state quantization conditions, dispersions, and asymptotics.

Every discrete family reduces to a polynomial condition in the energy once
the defining transcendental condition is squared; candidates are all
polynomial roots, and admissibility flags record (i) the polynomial residual,
(ii) reality of every square-root subexpression, (iii) whether the unsquared
condition holds with the principal square-root sign (both signs are kept and
the realized sign recorded), and (iv) a decay diagnostic for the assembled
state.  No root is silently discarded.

The DIII_V1 quartic is solved by companion-matrix eigenvalues polished with
Newton steps; DIV_V3 is a bracketed bisection/secant search on its
transcendental condition in two published index conventions (one of whose
indices cancels algebraically); roots of both conventions are candidates and
the flags adjudicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoRootError, ParamError, UnsupportedError
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
        return [complex(_polish_poly_root(coeffs, z)) for z in np.roots(coeffs)]
    return _quad_roots(*(0.0,) * (3 - len(coeffs)), *coeffs)


def _polish_poly_root(coeffs, z):
    p = np.poly1d(coeffs)
    dp = p.deriv()
    for _ in range(8):
        d = dp(z)
        if d == 0:
            break
        z = z - p(z) / d
    return z


def quantization_residual(spec: PotentialSpec, qn: QuantumNumbers, E) -> float:
    """Residual of the family's squared (polynomial) quantization condition,
    normalized by the magnitude of its largest term (the smallest over the
    branches)."""
    E = complex(E)
    rec = FAMILIES[spec.family]
    if rec.transcendental:
        vals = [abs(g) for g in rec.gaps(spec, qn, E.real) if not math.isnan(g)]
        return (min(vals) if vals else math.nan) / (1.0 + abs(E.real))
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
        g_plus, g_minus = rec.unsquared_gap(spec, qn, E)
    except DomainError:  # a square root of the condition went complex
        g_plus = g_minus = math.nan
    sqrt_ok = not (math.isnan(g_plus) or math.isnan(g_minus))
    utol = 1e-7
    plus_ok = sqrt_ok and g_plus < utol
    minus_ok = sqrt_ok and g_minus < utol
    return {
        "E": float(E),
        "residual": float(res),
        "sqrt_real": bool(sqrt_ok),
        "satisfies_unsquared": bool(plus_ok or minus_ok),
        "unsquared_sign": +1 if plus_ok else (-1 if minus_ok else 0),
        "decaying_wavefunction": bool(rec.decays(spec, qn, E)),
        "admissible": bool(res < 1e-9 and sqrt_ok),
    }


def solve_quantization(spec: PotentialSpec, qn: QuantumNumbers) -> EnergyRoots:
    """All candidate energies of the family's quantization condition at qn."""
    fam = spec.family
    rec = FAMILIES[fam]
    if not rec.schemes:
        raise UnsupportedError(f"{fam} has no discrete quantization")
    if qn.scheme not in rec.schemes:
        raise ParamError(f"{fam} does not separate in scheme {qn.scheme!r}")

    if rec.transcendental:
        cands = _scan_roots(spec, qn, rec)
    else:
        cands = [z for co in rec.branches(spec, qn) for z in _poly_roots(co)]
    out = EnergyRoots(candidates=[complex(z) for z in cands])
    for z in out.candidates:
        if abs(z.imag) < 1e-10 * (1.0 + abs(z.real)):
            out.admissible.append(admissibility_check(spec, qn, z.real))
    return out


def _scan_roots(spec: PotentialSpec, qn: QuantumNumbers, rec):
    """Bracketed roots of a transcendental condition, each of its conventions
    scanned over 1000 brackets of the record's energy window; secant-polished."""
    roots = []
    for k, (e_lo, e_hi) in enumerate(rec.scan_windows(spec, qn)):
        def func(E):
            return rec.gaps(spec, qn, E)[k]

        es = np.linspace(e_lo, e_hi, 1001)
        vals = func(es)
        va, vb = vals[:-1], vals[1:]
        # brackets with finite ends and no sign agreement
        for i in np.flatnonzero(np.isfinite(va) & np.isfinite(vb) & ~(va * vb > 0)):
            lo, hi, flo = es[i], es[i + 1], va[i]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = func(mid)
                if fm == 0 or hi - lo < 1e-14 * (1.0 + abs(mid)):
                    break
                if flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
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
            roots.append(x1)
    if not roots:
        raise NoRootError(f"{spec.family} bracket scan found no sign change")
    return sorted(set(round(r, 12) for r in roots))


def continuous_dispersion(spec: PotentialSpec, p: float, aux=None) -> float:
    """Continuous-branch energy E_p of the family (aux picks the chart form
    where two chart forms exist: None/'uv' or 'degelliptic')."""
    if p < 0:
        raise ParamError("momentum label p must be non-negative")
    return FAMILIES[spec.family].dispersion(spec, p, aux)


def asymptotic_spectrum(spec: PotentialSpec, qn: QuantumNumbers, branch: str) -> float:
    """Large-quantum-number limit of the bound spectrum (DIII V2/V3/V5).

    'minus' is the deep oscillator-like branch, 'plus' the shallow
    Coulomb-like branch for V2/V3; for V5 'plus' is the deep free-motion-like
    branch and 'minus' the shallow one, matching the labels of its closed
    form.
    """
    return FAMILIES[spec.family].asymptotic(spec, qn, branch)
