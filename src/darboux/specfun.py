"""Special functions and the 1D model eigenproblems used by the separations.

Polynomials are evaluated by three-term recurrence, the Gauss hypergeometric
function by power series plus the standard transformations, and the complex
gamma function by a Lanczos approximation.  The model families collect the
exactly solvable 1D problems that appear as separation factors: harmonic and
radial harmonic oscillator, Poeschl-Teller and modified Poeschl-Teller (bound
and scattering), bound Morse, and the complex periodic Morse problem whose
spectrum is real.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParamError, PoleError

_EPS = 1e-16
_MAXTERMS = 4000

# ----------------------------------------------------------------------
# gamma function (complex Lanczos, g = 7)
# ----------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _sinpi(z):
    """sin(pi z) with exact integer reduction of the real part."""
    z = complex(z)
    n = round(z.real)
    r = complex(z.real - n, z.imag)
    s = cmath.sin(cmath.pi * r)
    return -s if n % 2 else s


def gamma_complex(z):
    """Gamma(z) for complex z via Lanczos approximation with reflection."""
    z = complex(z)
    if z.real < 0.5:
        s = _sinpi(z)
        if s == 0:
            raise PoleError(f"gamma pole at z = {z}")
        return cmath.pi / (s * gamma_complex(1.0 - z))
    z -= 1.0
    x = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


# ----------------------------------------------------------------------
# orthogonal polynomials
# ----------------------------------------------------------------------

def orthopoly_eval(family: str, n: int, params, x):
    """Evaluate an orthogonal polynomial of degree n by recurrence.

    family: 'hermite' (physicists'), 'laguerre' (generalized, params=(alpha,)),
    or 'jacobi' (params=(alpha, beta)).  Complex alpha and complex x are
    accepted for the Laguerre family.
    """
    if n < 0 or n != int(n):
        raise ParamError("polynomial degree must be a non-negative integer")
    n = int(n)
    x = np.asarray(x)
    if family == "hermite":
        p_prev = np.ones_like(x)
        if n == 0:
            return p_prev
        p = 2.0 * x
        for k in range(1, n):
            p, p_prev = 2.0 * x * p - 2.0 * k * p_prev, p
        return p
    if family == "laguerre":
        (alpha,) = params
        if isinstance(alpha, complex) or np.iscomplexobj(x):
            x = x.astype(complex)
        p_prev = np.ones_like(x)
        if n == 0:
            return p_prev
        p = 1.0 + alpha - x
        for k in range(1, n):
            p, p_prev = ((2.0 * k + 1.0 + alpha - x) * p - (k + alpha) * p_prev) / (k + 1.0), p
        return p
    if family == "jacobi":
        alpha, beta = params
        p_prev = np.ones_like(x)
        if n == 0:
            return p_prev
        p = (alpha + 1.0) + 0.5 * (alpha + beta + 2.0) * (x - 1.0)
        for k in range(2, n + 1):
            s = 2.0 * k + alpha + beta
            a1 = 2.0 * k * (k + alpha + beta) * (s - 2.0)
            a2 = (s - 1.0) * (alpha * alpha - beta * beta)
            a3 = (s - 2.0) * (s - 1.0) * s
            a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s
            p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
        return p
    raise ParamError(f"unknown polynomial family {family!r}")


# ----------------------------------------------------------------------
# hypergeometric functions
# ----------------------------------------------------------------------

def _is_nonpos_int(z):
    z = complex(z)
    return abs(z.imag) < 1e-12 and z.real < 0.5 and abs(z.real - round(z.real)) < 1e-12


def _series_2f1(a, b, c, z):
    term = 1.0 + 0.0j
    total = term
    for k in range(_MAXTERMS):
        term *= (a + k) * (b + k) * z / ((c + k) * (k + 1.0))
        total += term
        if abs(term) <= _EPS * max(abs(total), 1e-300):
            return total
    raise ConvergenceError("2F1 series did not converge")


def _terminating_degree(a, b, c):
    """n when a or b is -n and c is no pole in front of the last term, else None."""
    for p in (a, b):
        if _is_nonpos_int(p):
            n = int(round(-complex(p).real))
            if not (_is_nonpos_int(c) and -round(complex(c).real) < n):
                return n
    return None


def _terminating_2f1(a, b, c, z, n, one):
    """The n + 1 terms of a terminating 2F1, summed from ``one`` (1 in z's type)."""
    term = total = one
    for k in range(n):
        term = term * ((a + k) * (b + k) * z / ((c + k) * (k + 1.0)))
        total = total + term
    return total


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z).

    Power series for small |z|, Pfaff transformation for z to the left of the
    disk, and the 1-z connection formula near the unit circle.  Terminating
    cases are summed directly for any z, and only there may z be an array:
    the sum then runs over the whole array, in real arithmetic when a, b, c
    and z are all real.  A scalar z gives a complex result.
    """
    n = _terminating_degree(a, b, c)
    if n is None and _is_nonpos_int(c):
        raise PoleError("2F1 pole: c is a non-positive integer")
    if np.ndim(z):
        if n is None:
            raise ParamError("2F1 takes an array z only when its series terminates")
        real = not any(np.iscomplexobj(p) for p in (a, b, c, z))
        if real:
            a, b, c = float(a), float(b), float(c)
        z = np.asarray(z, dtype=float if real else complex)
        return _terminating_2f1(a, b, c, z, n, np.ones(z.shape, dtype=z.dtype))
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if n is not None:
        return _terminating_2f1(a, b, c, z, n, 1.0 + 0.0j)
    if abs(z) <= 0.6:
        return _series_2f1(a, b, c, z)
    if z.real < 0:
        # Pfaff: z/(z-1) lies in [0, 1) for real z < 0
        w = z / (z - 1.0)
        return (1.0 - z) ** (-a) * hyp2f1(a, c - b, c, w)
    if abs(1.0 - z) < 0.75 and abs(z) <= 1.0 + 1e-12:
        s = c - a - b
        if abs(s - round(s.real)) < 1e-8 and abs(s.imag) < 1e-8:
            # nudge away from the logarithmic case
            return hyp2f1(a + 1e-9, b, c, z)
        g = gamma_complex
        t1 = g(c) * g(s) / (g(c - a) * g(c - b)) * _series_2f1(a, b, 1.0 - s, 1.0 - z)
        t2 = (
            g(c) * g(-s) / (g(a) * g(b))
            * (1.0 - z) ** s
            * _series_2f1(c - a, c - b, 1.0 + s, 1.0 - z)
        )
        return t1 + t2
    if abs(z) < 1.0:
        return _series_2f1(a, b, c, z)
    raise ConvergenceError(f"2F1 argument z = {z} outside the supported region")


# ----------------------------------------------------------------------
# model eigenproblems
# ----------------------------------------------------------------------

HO = "HO"
RHO = "RHO"
PT = "PT"
MPT_BOUND = "MPT_bound"
MPT_SCATTER = "MPT_scatter"
MORSE_BOUND = "Morse_bound"
CMORSE = "cMorse"

_BOUND_TAGS = (HO, RHO, PT, MPT_BOUND, MORSE_BOUND, CMORSE)


@dataclass(frozen=True)
class ModelFamily:
    """A 1D model problem: tag plus its coupling parameters.

    params by tag:
      HO:            omega
      RHO:           omega, lam
      PT:            alpha, beta                (alpha, beta > -1)
      MPT_bound/scatter: eta, nu
      Morse_bound:   v0, alpha_t                (depth V0 and shape alpha~)
      cMorse:        c1, c2                     (c1 != 0)
    """

    tag: str
    params: dict = field(default_factory=dict)
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.tag not in _BOUND_TAGS + (MPT_SCATTER,):
            raise ParamError(f"unknown model family {self.tag!r}")
        p = self.params
        if self.tag == PT and (p["alpha"] <= -1 or p["beta"] <= -1):
            raise ParamError("PT requires alpha, beta > -1")
        if self.tag == CMORSE and p["c1"] == 0:
            raise ParamError("cMorse requires c1 != 0")

    def p(self, key):
        return self.params[key]


def _mpt_k12(fam: ModelFamily):
    """MPT index pair (k1, k2); a negative eta gives the other square-root
    branch of k2."""
    k1 = 0.5 * (1.0 + fam.p("nu"))
    k2 = 0.5 * (1.0 + fam.p("eta"))
    return k1, k2


def model_max_index(fam: ModelFamily):
    """Number of bound states minus one; None when the ladder is infinite."""
    if fam.tag in (HO, RHO, PT):
        return None
    if fam.tag == MORSE_BOUND:
        s = fam.p("alpha_t") * fam.p("v0") - 0.5
        return math.floor(s - 1e-12) if s > 0 else -1
    if fam.tag == MPT_BOUND:
        k1, k2 = _mpt_k12(fam)
        s = k1 - k2 - 0.5
        return math.floor(s - 1e-12) if s > 0 else -1
    if fam.tag == CMORSE:
        s = 2.0 * fam.p("c2") / fam.p("c1") - 0.5
        return math.floor(s - 1e-12) if s > 0 else -1
    raise ParamError(f"{fam.tag} has no discrete ladder")


def _check_index(fam, n):
    if n < 0 or n != int(n):
        raise IndexError("bound-state index must be a non-negative integer")
    top = model_max_index(fam)
    if top is not None and n > top:
        raise IndexError(f"{fam.tag} supports indices 0..{top}, got {n}")


def model_eigenvalue(fam: ModelFamily, n: int) -> float:
    """Closed-form bound-state energy of the model family."""
    if fam.tag == MPT_SCATTER:
        raise IndexError("scattering families have no discrete levels")
    _check_index(fam, n)
    hb, m = fam.hbar, fam.mass
    if fam.tag == HO:
        return hb * fam.p("omega") * (n + 0.5)
    if fam.tag == RHO:
        return hb * fam.p("omega") * (2.0 * n + fam.p("lam") + 1.0)
    if fam.tag == PT:
        s = 2.0 * n + fam.p("alpha") + fam.p("beta") + 1.0
        return hb * hb / (2.0 * m) * s * s
    if fam.tag == MORSE_BOUND:
        s = fam.p("alpha_t") * fam.p("v0") - n - 0.5
        return -hb * hb / (2.0 * m) * s * s
    if fam.tag == MPT_BOUND:
        k1, k2 = _mpt_k12(fam)
        s = 2.0 * (k1 - k2 - n) - 1.0
        return -hb * hb / (2.0 * m) * s * s
    if fam.tag == CMORSE:
        s = 2.0 * fam.p("c2") / fam.p("c1") - n - 0.5
        return hb * hb / (2.0 * m) * s * s


def model_domain(fam: ModelFamily):
    """Natural coordinate domain of the family (open interval)."""
    if fam.tag in (HO,):
        return (-math.inf, math.inf)
    if fam.tag in (RHO, MPT_BOUND, MPT_SCATTER):
        return (0.0, math.inf)
    if fam.tag == PT:
        return (0.0, math.pi / 2.0)
    if fam.tag == MORSE_BOUND:
        return (-math.inf, math.inf)
    if fam.tag == CMORSE:
        return (0.0, 2.0 * math.pi)


def model_potential(fam: ModelFamily):
    """The defining potential profile U(x) as a vectorized callable."""
    hb, m = fam.hbar, fam.mass
    c = hb * hb / (2.0 * m)
    if fam.tag == HO:
        w = fam.p("omega")
        return lambda x: 0.5 * m * w * w * np.asarray(x) ** 2
    if fam.tag == RHO:
        w, lam = fam.p("omega"), fam.p("lam")
        return lambda x: 0.5 * m * w * w * np.asarray(x) ** 2 + c * (lam * lam - 0.25) / np.asarray(x) ** 2
    if fam.tag == PT:
        al, be = fam.p("alpha"), fam.p("beta")
        return lambda x: c * ((al * al - 0.25) / np.sin(x) ** 2 + (be * be - 0.25) / np.cos(x) ** 2)
    if fam.tag in (MPT_BOUND, MPT_SCATTER):
        eta, nu = fam.p("eta"), fam.p("nu")
        return lambda x: c * ((eta * eta - 0.25) / np.sinh(x) ** 2 - (nu * nu - 0.25) / np.cosh(x) ** 2)
    if fam.tag == MORSE_BOUND:
        v0, at = fam.p("v0"), fam.p("alpha_t")
        return lambda x: c * v0 * v0 * (np.exp(2.0 * np.asarray(x)) - 2.0 * at * np.exp(np.asarray(x)))
    if fam.tag == CMORSE:
        c1, c2 = fam.p("c1"), fam.p("c2")
        return lambda x: c * (-4.0 * c1 * c1 * np.exp(-2j * np.asarray(x)) + 8.0 * c2 * np.exp(-1j * np.asarray(x)))
    raise ParamError(f"no potential profile for {fam.tag}")


# nothing fills these; perfbench/tracer.py reads their sizes
_W_CACHE: dict = {}
_NORM_CACHE: dict = {}


def model_eigenfunction(fam: ModelFamily, n, x):
    """Sample the model eigenfunction at x.

    For bound families ``n`` is the integer quantum number and the result
    carries the closed-form constant that makes it unit-normalized over the
    natural domain (the Hermite, Laguerre and Jacobi norms of DLMF §18.3); the
    complex Morse states are left unnormalized.  For the scattering families
    ``n`` is the real momentum label and the prefactor is delta-normalized.
    """
    if fam.tag != MPT_SCATTER:
        _check_index(fam, n)
        n = int(n)
    hb, m = fam.hbar, fam.mass
    x = np.asarray(x, dtype=float)
    if fam.tag == HO:
        w = fam.p("omega")
        q = m * w / hb
        pref = (q / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
        h = orthopoly_eval("hermite", n, (), np.sqrt(q) * x)
        return pref * h * np.exp(-0.5 * q * x * x)
    if fam.tag == RHO:
        w, lam = fam.p("omega"), fam.p("lam")
        q = m * w / hb
        pref = math.sqrt(2.0 * q ** (lam + 1.0) * math.factorial(n)
                         / abs(gamma_complex(n + lam + 1.0)))
        lag = orthopoly_eval("laguerre", n, (lam,), q * x * x)
        return pref * x ** (lam + 0.5) * np.exp(-0.5 * q * x * x) * lag
    if fam.tag == PT:
        al, be = fam.p("alpha"), fam.p("beta")
        pref = math.sqrt(
            2.0 * (al + be + 2.0 * n + 1.0) * math.factorial(n)
            * abs(gamma_complex(al + be + n + 1.0))
            / (abs(gamma_complex(al + n + 1.0)) * abs(gamma_complex(be + n + 1.0)))
        )
        jac = orthopoly_eval("jacobi", n, (al, be), np.cos(2.0 * x))
        return pref * np.sin(x) ** (al + 0.5) * np.cos(x) ** (be + 0.5) * jac
    if fam.tag == MORSE_BOUND:
        v0, at = fam.p("v0"), fam.p("alpha_t")
        s = at * v0 - n - 0.5
        pref = math.sqrt(2.0 * s * math.factorial(n) / abs(gamma_complex(2.0 * at * v0 - n)))
        z = 2.0 * v0 * np.exp(x)
        lag = orthopoly_eval("laguerre", n, (2.0 * s,), z)
        return pref * z ** s * np.exp(-0.5 * z) * lag
    if fam.tag == MPT_BOUND:
        k1, k2 = _mpt_k12(fam)
        kap = k1 - k2 - n
        g = gamma_complex
        inside = (
            2.0 * (2.0 * kap - 1.0)
            * g(k1 + k2 - kap) * g(k1 + k2 + kap - 1.0)
            / (g(k1 - k2 + kap) * g(k1 - k2 - kap + 1.0))
        )
        pref = abs(cmath.sqrt(inside)) / abs(g(2.0 * k2))
        # math.sinh, not np.sinh: the two differ by an ulp at some points
        z = np.fromiter((-math.sinh(t) ** 2 for t in np.ravel(x)), float, x.size).reshape(x.shape)
        f = np.real(hyp2f1(-k1 + k2 + kap, -k1 + k2 - kap + 1.0, 2.0 * k2, z))
        return pref * np.sinh(x) ** (2.0 * k2 - 0.5) * np.cosh(x) ** (-2.0 * k1 + 1.5) * f
    if fam.tag == MPT_SCATTER:
        k1, k2 = _mpt_k12(fam)
        p = float(n)
        kap = 0.5 * (1.0 + 1j * p)
        g = gamma_complex
        pref = (
            math.sqrt(p * math.sinh(math.pi * p) / (2.0 * math.pi ** 2))
            * abs(cmath.sqrt(g(k1 + k2 - kap) * g(-k1 + k2 + kap)
                             * g(k1 + k2 + kap - 1.0) * g(-k1 + k2 - kap + 1.0)))
            / abs(g(2.0 * k2))
        )
        f = np.array([
            hyp2f1(k1 + k2 - kap, k1 + k2 + kap - 1.0, 2.0 * k2, -math.sinh(t) ** 2)
            for t in np.ravel(x)
        ]).reshape(np.shape(x))
        return pref * np.cosh(x) ** (2.0 * k1 - 0.5) * np.sinh(x) ** (2.0 * k2 - 0.5) * f
    if fam.tag == CMORSE:
        c1, c2 = fam.p("c1"), fam.p("c2")
        mu = 2.0 * c2 / c1 - n - 0.5
        z = 4.0 * c1 * np.exp(-1j * x)
        # z^mu taken as (4 c1)^mu e^{-i mu x}: single-valued in the angle
        zmu = (4.0 * c1) ** mu * np.exp(-1j * mu * x)
        lag = orthopoly_eval("laguerre", n, (2.0 * mu,), z.astype(complex))
        return zmu * np.exp(-0.5 * z) * lag
    raise ParamError(f"no eigenfunction for {fam.tag}")
