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
from .potentials import (
    PotentialSpec,
    _quantum_unit,
    cmorse_map,
    div1_indices,
    div3_indices,
    mpt_indices_div,
)

SCHEMES = {
    "DIII_V1": ("parabolic",),
    "DIII_V2": ("uv", "polar", "parabolic"),
    "DIII_V3": ("polar",),
    "DIII_V4": ("hyperbolic",),
    "DIII_V5": ("uv", "polar", "parabolic", "hyperbolic"),
    "DIV_V1": ("uv", "horospherical"),
    "DIV_V2": ("uv", "degelliptic2"),
    "DIV_V3": ("degelliptic2",),
}


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

    def energies(self, only_admissible=True):
        if only_admissible:
            return [rec["E"] for rec in self.admissible if rec["admissible"]]
        return [rec["E"] for rec in self.admissible]


def effective_count(spec: PotentialSpec, qn: QuantumNumbers) -> float:
    """The composite quantum number entering the family's squared condition."""
    fam = spec.family
    n, l = qn.n, qn.l
    if fam == "DIII_V1":
        return n + l + 1.0
    if fam == "DIII_V2":
        return 2.0 * n + 2.0 * l + abs(spec.c("k1")) + abs(spec.c("k2")) + 2.0
    if fam == "DIII_V3":
        _, _, lam_of = cmorse_map(spec)
        return 2.0 * n + lam_of(l) + 1.0
    if fam == "DIII_V5":
        if qn.scheme == "uv":
            return 2.0 * n + 2.0 * l + 1.0
        if qn.scheme == "polar":
            return 2.0 * n + abs(l) + 1.0
        return n + l + 1.0  # parabolic and hyperbolic countings
    if fam == "DIV_V1":
        return spec.c("alpha") / (spec.space.hbar * spec.c("omega")) - 2.0 * (n + l + 1.0)
    if fam == "DIV_V2":
        return abs(spec.c("k2")) - abs(spec.c("k1")) - 2.0 * (n + l) - 2.0
    raise UnsupportedError(f"no composite count for {fam}")


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


def _energy_shift(spec: PotentialSpec) -> float:
    """The constant c of the D_III V2/V3/V5 condition a E - c = -s hbar w M."""
    if spec.family == "DIII_V5":
        return _quantum_unit(spec.space) * spec.c("v0") ** 2
    return spec.c("alpha")


def _branches(spec: PotentialSpec, qn: QuantumNumbers) -> list:
    """Coefficient tuples (highest power of E first) of every branch of the
    family's squared quantization condition."""
    sp = spec.space
    fam = spec.family
    a, b, m, hb = sp.a, sp.b, sp.mass, sp.hbar
    if fam == "DIII_V1":
        if a * a * b * b == 0:
            raise ParamError(f"DIII_V1 condition divides by (a b)^2, which is 0 at "
                             f"a = {a!r}, b = {b!r}")
        c = spec.c("k1") ** 2 + spec.c("k2") ** 2
        k3 = spec.c("k3")
        N = effective_count(spec, qn)
        # squaring a E - k3 + c/(2 m w^2) = -hbar w N with w^2 = -bE/2m gives the
        # quartic below; squaring either sign branch fixes the constant term
        # as +c^2/(a b)^2
        return [(
            1.0,
            b * hb * hb * N * N / (2.0 * m * a * a) - 2.0 * k3 / a,
            -(2.0 * c / (a * b) - k3 * k3 / (a * a)),
            2.0 * k3 * c / (a * a * b),
            c * c / (a * a * b * b),
        )]
    if fam in ("DIII_V2", "DIII_V3", "DIII_V5"):
        # (a E - c)^2 = -s hbar^2 M^2 b E / (2m)
        c = _energy_shift(spec)
        M = effective_count(spec, qn)
        s = 0.5 if (fam == "DIII_V5" and qn.scheme == "hyperbolic") else 1.0
        B = s * hb ** 2 * M * M * b / (2.0 * m)
        return [(a ** 2, B - 2.0 * a * c, c * c)]
    if fam == "DIII_V4":
        # sum branch: m (d1+d2)^2 = hbar^2 (n+l+1)^2 (m w^2 - bE);
        # difference branch: m (2aE - d1 + d2)^2 = hbar^2 (n-l)^2 (m w^2 - bE)
        d1, d2, om = spec.c("d1"), spec.c("d2"), spec.c("omega")
        Np = qn.n + qn.l + 1.0
        nd = qn.n - qn.l
        h2n = hb * hb * Np * Np
        h2d = hb * hb * nd * nd
        # at n = l the difference branch is the square of its linear factor,
        # whose root is listed once per copy of the double root
        diff = [(2.0 * a, d2 - d1)] * 2 if nd == 0 else [
            (4.0 * a * a * m, 4.0 * a * m * (d2 - d1) + h2d * b,
             m * (d1 - d2) ** 2 - h2d * m * om * om)]
        return [(h2n * b, m * (d1 + d2) ** 2 - h2n * m * om * om), *diff]
    if fam == "DIV_V1":
        hq = _quantum_unit(sp)
        k1, k2 = spec.c("k1"), spec.c("k2")
        S = effective_count(spec, qn)
        N = S * S - (k1 * k1 + k2 * k2)
        Ka = 4.0 * (sp.a_plus * k1 * k1 + sp.a_minus * k2 * k2)
        return [(b * b, hq * (a * N + Ka), hq * hq * (N * N - 4.0 * k1 * k1 * k2 * k2))]
    if fam == "DIV_V2":
        S2 = effective_count(spec, qn)
        k3 = spec.c("k3")
        return [(
            4.0 * m * m * b * b / hb ** 4,
            2.0 * m * a * S2 * S2 / hb ** 2,
            S2 * S2 * (S2 * S2 - 4.0 * k3 * k3),
        )]
    raise UnsupportedError(f"{fam} has no polynomial quantization condition")


def _poly_roots(coeffs):
    """All roots of one branch: companion matrix plus Newton polish above
    degree 2, the cancellation-stable closed form otherwise."""
    if len(coeffs) > 3:
        return [complex(_polish_poly_root(coeffs, z)) for z in np.roots(coeffs)]
    return _quad_roots(*(0.0,) * (3 - len(coeffs)), *coeffs)


def _polish_poly_root(coeffs, z, steps=8):
    p = np.poly1d(coeffs)
    dp = p.deriv()
    for _ in range(steps):
        d = dp(z)
        if d == 0:
            break
        z = z - p(z) / d
    return z


def _div3_gaps(spec: PotentialSpec, qn: QuantumNumbers, E):
    """The DIV_V3 condition in its two index conventions, (tabulated after its
    cancellation, separation-consistent closure); NaN where an index is complex.
    E may be an array of energies."""
    lam = div3_indices(spec, E)
    nl = 2.0 * (qn.n + qn.l)
    return (nl + lam["1m"] - lam["2m"] - 2.0,
            lam["2p"] - lam["3p"] - lam["3m"] - lam["1m"] - nl - 2.0)


def quantization_residual(spec: PotentialSpec, qn: QuantumNumbers, E) -> float:
    """Residual of the family's squared (polynomial) quantization condition,
    normalized by the magnitude of its largest term (the smallest over the
    branches)."""
    E = complex(E)
    if spec.family == "DIV_V3":
        vals = [abs(g) for g in _div3_gaps(spec, qn, E.real) if not math.isnan(g)]
        return (min(vals) if vals else math.nan) / (1.0 + abs(E.real))
    res = []
    for co in _branches(spec, qn):
        terms = [c * E ** (len(co) - 1 - k) for k, c in enumerate(co)]
        res.append(abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300))
    return min(res)


def _gap_pair(lhs, rhs, floor=1e-300):
    """(|lhs - rhs|, |lhs + rhs|) normalized by the larger side, or by
    ``floor`` if that is larger."""
    sc = max(abs(lhs), abs(rhs), floor)
    return (abs(lhs - rhs) / sc, abs(lhs + rhs) / sc)


def _unsquared_gap(spec: PotentialSpec, qn: QuantumNumbers, E: float):
    """(gap with principal signs, gap with flipped sign) of the unsquared
    condition, both normalized; NaN when a square root goes complex."""
    sp = spec.space
    fam = spec.family
    a, b, m, hb = sp.a, sp.b, sp.mass, sp.hbar
    try:
        if fam in ("DIII_V1", "DIII_V2", "DIII_V3", "DIII_V5"):
            if -b * E <= 0:
                return (math.nan, math.nan)
            w = math.sqrt(-b * E / (2.0 * m))
            if fam == "DIII_V1":
                c = spec.c("k1") ** 2 + spec.c("k2") ** 2
                N = effective_count(spec, qn)
                return _gap_pair(a * E - spec.c("k3") + c / (2.0 * m * w * w), hb * w * N)
            M = effective_count(spec, qn)
            s = math.sqrt(0.5) if (fam == "DIII_V5" and qn.scheme == "hyperbolic") else 1.0
            return _gap_pair(a * E - _energy_shift(spec), s * hb * w * M)
        if fam == "DIII_V4":
            d1, d2, om = spec.c("d1"), spec.c("d2"), spec.c("omega")
            if m * om * om - b * E <= 0:
                return (math.nan, math.nan)
            den = hb * math.sqrt(m * om * om - b * E)
            # both sides are pure numbers; a unit scale keeps n = l (rhs 0) finite
            g1 = _gap_pair(-(d1 + d2) * math.sqrt(m) / den, qn.n + qn.l + 1.0, 1.0)
            g2 = _gap_pair((2.0 * a * E - d1 + d2) * math.sqrt(m) / den, float(qn.n - qn.l), 1.0)
            return min(g1, g2, key=min)
        if fam == "DIV_V1":
            l1, l2 = div1_indices(spec, E)
            return _gap_pair(effective_count(spec, qn), l1 + l2)
        if fam == "DIV_V2":
            lp, lm = mpt_indices_div(spec, E)
            return _gap_pair(effective_count(spec, qn), lp + lm)
        if fam == "DIV_V3":
            gaps = [1e6 if math.isnan(g) else min(abs(g), 1e6) for g in _div3_gaps(spec, qn, E)]
            return tuple(g / (1.0 + g) for g in gaps)
    except DomainError:
        return (math.nan, math.nan)
    raise UnsupportedError(fam)


def _decay_flag(spec: PotentialSpec, qn: QuantumNumbers, E: float) -> bool:
    """Does the family's stated decay criterion hold for this root?"""
    sp = spec.space
    fam = spec.family
    hb, m = sp.hbar, sp.mass
    if fam.startswith("DIII"):
        if fam == "DIII_V4":
            d1, d2, om = spec.c("d1"), spec.c("d2"), spec.c("omega")
            if m * om * om - sp.b * E <= 0:
                return False
            v0 = math.sqrt(m * (m * om * om - sp.b * E)) / hb
            sx = (sp.a * E - d1) / (m * om * om - sp.b * E) * v0 - qn.n - 0.5
            sy = -(sp.a * E + d2) / (m * om * om - sp.b * E) * v0 - qn.l - 0.5
            return sx > 0 and sy > 0
        return sp.b / sp.a > 0 and E < 0
    if fam == "DIV_V1":
        try:
            l1, l2 = div1_indices(spec, E)
        except DomainError:
            return False
        return (effective_count(spec, qn) > 0
                and spec.c("alpha") / (2.0 * hb * spec.c("omega")) - qn.l - 0.5 > 0)
    if fam == "DIV_V2":
        k1, k2 = abs(spec.c("k1")), abs(spec.c("k2"))
        if qn.l > (k2 - k1 - 1.0) / 2.0 - 1e-12:
            return False
        try:
            lp, lm = mpt_indices_div(spec, E)
        except DomainError:
            return False
        return effective_count(spec, qn) > 0
    if fam == "DIV_V3":
        lam = div3_indices(spec, E)
        need = (lam["2p"], lam["3p"], lam["3m"], lam["1m"])
        if any(math.isnan(v) for v in need):
            return False
        return lam["2p"] - lam["3p"] - 2.0 * qn.l - 1.0 > 0
    return False


def admissibility_check(spec: PotentialSpec, qn: QuantumNumbers, E: float, tol=1e-9) -> dict:
    """The three admissibility ingredients for a real candidate energy."""
    res = quantization_residual(spec, qn, E)
    g_plus, g_minus = _unsquared_gap(spec, qn, E)
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
        "decaying_wavefunction": bool(_decay_flag(spec, qn, E)),
        "admissible": bool(res < tol and sqrt_ok),
    }


def solve_quantization(spec: PotentialSpec, qn: QuantumNumbers) -> EnergyRoots:
    """All candidate energies of the family's quantization condition at qn."""
    fam = spec.family
    if fam not in SCHEMES:
        raise UnsupportedError(f"{fam} has no discrete quantization")
    if qn.scheme not in SCHEMES[fam]:
        raise ParamError(f"{fam} does not separate in scheme {qn.scheme!r}")

    if fam == "DIV_V3":
        cands = _div3_roots(spec, qn)
    else:
        cands = [z for co in _branches(spec, qn) for z in _poly_roots(co)]
    out = EnergyRoots(candidates=[complex(z) for z in cands])
    for z in out.candidates:
        if abs(z.imag) < 1e-10 * (1.0 + abs(z.real)):
            out.admissible.append(admissibility_check(spec, qn, z.real))
    return out


def _div3_roots(spec: PotentialSpec, qn: QuantumNumbers, n_brackets=1000):
    """Bracketed roots of the DIV_V3 condition on E in (E_min, 0).

    Scans both index conventions (the tabulated one, after its cancellation,
    and the separation-consistent closure); secant-polished.
    """
    sp = spec.space
    hb2 = sp.hbar ** 2

    def top_of(name):
        i, pm = int(name[0]), name[1]
        ci = spec.c(f"c{i}")
        if pm == "p":
            return (0.25 - ci) * hb2 / (2.0 * sp.mass * sp.a_plus)
        return (0.25 + ci) * hb2 / (2.0 * sp.mass * sp.a_minus)

    scale = hb2 / (2.0 * sp.mass * sp.a_plus)
    roots = []
    # the indices each convention of _div3_gaps reads
    for k, needs in enumerate((("1m", "2m"), ("2p", "3p", "3m", "1m"))):
        def func(E):
            return _div3_gaps(spec, qn, E)[k]

        e_hi = min(0.0, min(top_of(nm) for nm in needs)) - 1e-12
        e_lo = e_hi - 400.0 * scale * (1.0 + qn.n + qn.l) ** 2
        es = np.linspace(e_lo, e_hi, n_brackets + 1)
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
        raise NoRootError("DIV_V3 bracket scan found no sign change")
    return sorted(set(round(r, 12) for r in roots))


def continuous_dispersion(spec: PotentialSpec, p: float, aux=None) -> float:
    """Continuous-branch energy E_p of the family (aux picks the chart form
    where two chart forms exist: None/'uv' or 'degelliptic')."""
    if p < 0:
        raise ParamError("momentum label p must be non-negative")
    sp = spec.space
    hq = _quantum_unit(sp)
    fam = spec.family
    if fam == "DIII_V4":
        return hq * p * p
    if fam == "DIV_V1":
        return hq / sp.a_plus * (p * p + spec.c("k2") ** 2) * 1.0
    if fam == "DIV_V2":
        apm = sp.a_minus if aux == "degelliptic" else sp.a_plus
        return hq / apm * (p * p + spec.c("k3") ** 2)
    if fam == "DIV_V3":
        return hq / sp.a_minus * (p * p + 0.25 - spec.c("c3"))
    if fam == "DIV_V4":
        apm = sp.a_minus if aux == "degelliptic" else sp.a_plus
        return hq / apm * (p * p + spec.c("k0") ** 2)
    raise UnsupportedError(f"{fam} has no continuous branch")


def asymptotic_spectrum(spec: PotentialSpec, qn: QuantumNumbers, branch: str) -> float:
    """Large-quantum-number limit of the bound spectrum (DIII V2/V3/V5).

    'minus' is the deep oscillator-like branch, 'plus' the shallow
    Coulomb-like branch for V2/V3; for V5 'plus' is the deep free-motion-like
    branch and 'minus' the shallow one, matching the labels of its closed
    form.
    """
    sp = spec.space
    hq = _quantum_unit(sp)
    fam = spec.family
    a, b, m, hb = sp.a, sp.b, sp.mass, sp.hbar
    if fam in ("DIII_V2", "DIII_V3"):
        al = spec.c("alpha")
        N = effective_count(spec, qn)
        if branch == "minus":
            return -b * hb * hb * N * N / (2.0 * m * a * a) + 2.0 * al / a
        if branch == "plus":
            return -2.0 * m * al * al / (b * hb * hb * N * N)
    elif fam == "DIII_V5":
        v0 = spec.c("v0")
        M = effective_count(spec, qn)
        s = 0.5 if qn.scheme == "hyperbolic" else 1.0
        if branch == "plus":
            return -hq * s * (b / (a * a)) * (M * M - 2.0 * a * v0 * v0 / (s * b))
        if branch == "minus":
            return -hq * v0 ** 4 / (s * b * M * M)
    else:
        raise UnsupportedError(f"{fam} has no asymptotic pair")
    raise ParamError(f"unknown branch {branch!r}")
