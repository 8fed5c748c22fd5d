"""Special functions and the 1D model eigenproblems used by the separations.

Polynomials are evaluated by three-term recurrence, the Gauss hypergeometric
function by its terminating series, and the complex gamma function by a
Lanczos approximation.  The model table ``MODELS`` holds one row per exactly
solvable 1D bound-state problem that appears as a separation factor: harmonic
and radial harmonic oscillator, Poeschl-Teller and modified Poeschl-Teller,
Morse, the complex periodic Morse problem whose spectrum is real, and the
plane wave e^{inx} on the circle, whose index takes either sign.  An HO
or RHO row at a negative frequency -w gives the growing partner of its states,
at the level its formula returns: the flipped factors of the D_III separations.
The unnormalized ``Morse`` row has no ladder top, and at a negative depth gives
the growing partner: the shapes of the D_III Morse log-axes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, LevelError, ParamError, PoleError

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
    if family not in ("hermite", "laguerre", "jacobi"):
        raise ParamError(f"unknown polynomial family {family!r}")
    n = int(n)
    x = np.asarray(x)
    if family == "laguerre" and (isinstance(params[0], complex) or np.iscomplexobj(x)):
        x = x.astype(complex)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    if family == "hermite":
        p = 2.0 * x
        for k in range(1, n):
            p, p_prev = 2.0 * x * p - 2.0 * k * p_prev, p
        return p
    if family == "laguerre":
        (alpha,) = params
        p = 1.0 + alpha - x
        for k in range(1, n):
            p, p_prev = ((2.0 * k + 1.0 + alpha - x) * p - (k + alpha) * p_prev) / (k + 1.0), p
        return p
    alpha, beta = params
    p = (alpha + 1.0) + 0.5 * (alpha + beta + 2.0) * (x - 1.0)
    for k in range(2, n + 1):
        s = 2.0 * k + alpha + beta
        a1 = 2.0 * k * (k + alpha + beta) * (s - 2.0)
        a2 = (s - 1.0) * (alpha * alpha - beta * beta)
        a3 = (s - 2.0) * (s - 1.0) * s
        a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return p


# ----------------------------------------------------------------------
# hypergeometric functions
# ----------------------------------------------------------------------

def _is_nonpos_int(z):
    z = complex(z)
    return abs(z.imag) < 1e-12 and z.real < 0.5 and abs(z.real - round(z.real)) < 1e-12


def _terminating_degree(a, b, c):
    """n when a or b is -n and c is no pole in front of the last term, else None."""
    for p in (a, b):
        if _is_nonpos_int(p):
            n = int(round(-complex(p).real))
            if not (_is_nonpos_int(c) and -round(complex(c).real) < n):
                return n
    return None


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) of a terminating series, summed
    directly for any z.  An array z is summed over the whole array, in real
    arithmetic when a, b, c and z are all real; a scalar z gives a complex
    result.  A series that does not terminate raises PoleError at a
    non-positive integer c and ParamError otherwise."""
    n = _terminating_degree(a, b, c)
    if n is None and _is_nonpos_int(c):
        raise PoleError("2F1 pole: c is a non-positive integer")
    if n is None:
        raise ParamError("2F1 is summed only when its series terminates")
    if np.ndim(z):
        real = not any(np.iscomplexobj(p) for p in (a, b, c, z))
        if real:
            a, b, c = float(a), float(b), float(c)
        z = np.asarray(z, dtype=float if real else complex)
        term = total = np.ones(z.shape, dtype=z.dtype)
    else:
        a, b, c, z = complex(a), complex(b), complex(c), complex(z)
        term = total = 1.0 + 0.0j
    for k in range(n):
        term = term * ((a + k) * (b + k) * z / ((c + k) * (k + 1.0)))
        total = total + term
    return total


# ----------------------------------------------------------------------
# model eigenproblems: one row per model
# ----------------------------------------------------------------------

HO, RHO, PT, CMORSE, WAVE = "HO", "RHO", "PT", "cMorse", "wave"
MPT_BOUND, MORSE_BOUND, MORSE = "MPT_bound", "Morse_bound", "Morse"


@dataclass(frozen=True)
class ModelFamily:
    """A 1D bound-state model problem: the tag of its row in ``MODELS`` and
    the coupling parameters that the row's ``keys`` name.  A non-finite
    parameter raises DomainError."""

    tag: str
    params: dict = field(default_factory=dict)
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        row = MODELS.get(self.tag)
        if row is None:
            raise ParamError(f"unknown model family {self.tag!r}")
        args = tuple(self.params[k] for k in row.keys)
        if not all(map(cmath.isfinite, args)):
            raise DomainError(f"{self.tag} parameters must be finite, got {self.params}")
        if row.invalid is not None and row.invalid(*args):
            raise ParamError(row.message)

    @property
    def row(self):
        return MODELS[self.tag]

    @property
    def args(self):
        return tuple(self.params[k] for k in self.row.keys)

    @property
    def unit(self):  # hbar^2 / 2m
        return self.hbar * self.hbar / (2.0 * self.mass)


@dataclass(frozen=True)
class ModelRow:
    """One exactly solvable model on its natural open interval ``domain``.  For
    the ModelFamily f with parameters args in ``keys`` order, ``level(f, n,
    *args)`` is the energy of level n, ``profile(f, x, *args)`` the potential and
    ``state(f, n, x, *args)`` the eigenfunction at the float array x; the levels
    stay below ``top(*args)`` (None: no top); ``invalid(*args)`` flags what
    ``message`` rejects; a ``signed`` index n may be negative.  The finite-difference
    oracle takes ``whole``, or the part of ``scan(*args)`` where the states live
    (neither: a complex profile, or none to confine)."""

    keys: tuple
    domain: tuple
    level: Callable
    profile: Callable
    state: Callable
    top: Callable | None = None
    invalid: Callable | None = None
    message: str = ""
    whole: tuple | None = None
    scan: Callable | None = None
    signed: bool = False


def _times_square(c, s):  # (c s) s, the rounding every level has had
    return c * s * s


def _mpt_k12(eta, nu):
    """MPT index pair (k1, k2); a negative eta gives k2's other square-root branch."""
    return 0.5 * (1.0 + nu), 0.5 * (1.0 + eta)


def _mpt_index(eta, nu, n=0):
    k1, k2 = _mpt_k12(eta, nu)
    return k1 - k2 - n - 0.5


def _ho_state(f, n, x, w):
    q = f.mass * w / f.hbar
    if w < 0:  # the growing partner i^{-n} H_n(i sqrt|q| x) e^{|q| x^2/2}, unnormalized
        flip = np.real(1j ** -n * orthopoly_eval("hermite", n, (), 1j * np.sqrt(-q) * x))
        return flip * np.exp(-0.5 * q * x * x)
    pref = (q / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
    return pref * orthopoly_eval("hermite", n, (), np.sqrt(q) * x) * np.exp(-0.5 * q * x * x)


def _rho_state(f, n, x, w, lam):
    q = f.mass * w / f.hbar
    # w < 0: the growing partner x^{lam+1/2} e^{|q| x^2/2} L_n^lam(-|q| x^2), unnormalized
    pref = 1.0 if w < 0 else math.sqrt(2.0 * q ** (lam + 1.0) * math.factorial(n)
                                       / abs(gamma_complex(n + lam + 1.0)))
    lag = orthopoly_eval("laguerre", n, (lam,), q * x * x)
    return pref * x ** (lam + 0.5) * np.exp(-0.5 * q * x * x) * lag


def _pt_state(f, n, x, al, be):
    s, g = al + be + 2.0 * n + 1.0, al + be + n + 1.0
    if s <= 0.0:  # n = 0 at alpha + beta <= -1: s Gamma(s) = Gamma(s + 1) > 0
        s, g = 1.0, al + be + 2.0
    pref = math.sqrt(2.0 * s * math.factorial(n) * abs(gamma_complex(g))
                     / (abs(gamma_complex(al + n + 1.0)) * abs(gamma_complex(be + n + 1.0))))
    jac = orthopoly_eval("jacobi", n, (al, be), np.cos(2.0 * x))
    return pref * np.sin(x) ** (al + 0.5) * np.cos(x) ** (be + 0.5) * jac


def _mpt_state(f, n, x, eta, nu):
    k1, k2 = _mpt_k12(eta, nu)
    kap = k1 - k2 - n
    g = gamma_complex
    inside = (2.0 * (2.0 * kap - 1.0) * g(k1 + k2 - kap) * g(k1 + k2 + kap - 1.0)
              / (g(k1 - k2 + kap) * g(k1 - k2 - kap + 1.0)))
    pref = abs(cmath.sqrt(inside)) / abs(g(2.0 * k2))
    # 2F1(-n, n + 1 - 2k1 + 2k2; 2k2; -sinh^2 x) = n!/(2k2)_n P_n^(2k2-1, 1-2k1)(cosh 2x)
    # (DLMF 15.9.1).  The recurrence divides by 2k(k + a + b)(2k + a + b - 2) with
    # a + b = 2(k2 - k1) < -2n - 1, since k <= n < k1 - k2 - 1/2 in the ladder: never by 0
    for j in range(n):
        pref *= (j + 1.0) / (2.0 * k2 + j)
    jac = orthopoly_eval("jacobi", n, (2.0 * k2 - 1.0, 1.0 - 2.0 * k1), np.cosh(2.0 * x))
    return pref * np.sinh(x) ** (2.0 * k2 - 0.5) * np.cosh(x) ** (-2.0 * k1 + 1.5) * jac


def _morse_shape(f, n, x, v0, at):
    """z^s e^{-sigma z/2} L_n^{2s}(sigma z), z = 2|v0| e^x, s = at v0 - n - 1/2, sigma
    the sign of v0.  An overflow gives inf or NaN, without a warning, for the caller."""
    s, sigma, z = at * v0 - n - 0.5, math.copysign(1.0, v0), 2.0 * abs(v0) * np.exp(x)
    with np.errstate(over="ignore", invalid="ignore"):
        lag = orthopoly_eval("laguerre", n, (2.0 * s,), sigma * z)
        return z ** s * np.exp(-0.5 * sigma * z) * lag


def _morse_state(f, n, x, v0, at):
    s = at * v0 - n - 0.5
    pref = math.sqrt(2.0 * s * math.factorial(n) / abs(gamma_complex(2.0 * at * v0 - n)))
    return pref * _morse_shape(f, n, x, v0, at)


def _cmorse_state(f, n, x, c1, c2):
    mu = 2.0 * c2 / c1 - n - 0.5
    z = 4.0 * c1 * np.exp(-1j * x)
    # z^mu taken as (4 c1)^mu e^{-i mu x}: single-valued in the angle
    zmu = (4.0 * c1) ** mu * np.exp(-1j * mu * x)
    return zmu * np.exp(-0.5 * z) * orthopoly_eval("laguerre", n, (2.0 * mu,), z.astype(complex))


MODELS = {
    HO: ModelRow(
        ("omega",), (-math.inf, math.inf), state=_ho_state, scan=lambda w: (-40.0, 40.0),
        level=lambda f, n, w: f.hbar * w * (n + 0.5),
        profile=lambda f, x, w: 0.5 * f.mass * w * w * x ** 2),
    RHO: ModelRow(
        ("omega", "lam"), (0.0, math.inf), state=_rho_state, scan=lambda w, lam: (1e-8, 40.0),
        level=lambda f, n, w, lam: f.hbar * w * (2.0 * n + lam + 1.0),
        profile=lambda f, x, w, lam: (0.5 * f.mass * w * w * x ** 2
                                      + f.unit * (lam * lam - 0.25) / x ** 2)),
    PT: ModelRow(
        ("alpha", "beta"), (0.0, math.pi / 2.0), state=_pt_state,
        level=lambda f, n, al, be: _times_square(f.unit, 2.0 * n + al + be + 1.0),
        profile=lambda f, x, al, be: f.unit * ((al * al - 0.25) / np.sin(x) ** 2
                                               + (be * be - 0.25) / np.cos(x) ** 2),
        invalid=lambda al, be: al <= -1 or be <= -1, message="PT requires alpha, beta > -1",
        whole=(1e-9, math.pi / 2.0 - 1e-9)),
    MPT_BOUND: ModelRow(
        ("eta", "nu"), (0.0, math.inf), state=_mpt_state, scan=lambda eta, nu: (1e-8, 40.0),
        level=lambda f, n, eta, nu: _times_square(-f.unit, 2.0 * _mpt_index(eta, nu, n)),
        profile=lambda f, x, eta, nu: f.unit * ((eta * eta - 0.25) / np.sinh(x) ** 2
                                                - (nu * nu - 0.25) / np.cosh(x) ** 2),
        top=_mpt_index),
    MORSE_BOUND: ModelRow(  # depth v0 and shape alpha_t
        ("v0", "alpha_t"), (-math.inf, math.inf), state=_morse_state,
        level=lambda f, n, v0, at: _times_square(-f.unit, at * v0 - n - 0.5),
        profile=lambda f, x, v0, at: f.unit * v0 * v0 * (np.exp(2.0 * x) - 2.0 * at * np.exp(x)),
        top=lambda v0, at: at * v0 - 0.5,
        scan=lambda v0, at: (-40.0, min(40.0, math.log(600.0 / v0)))),
    CMORSE: ModelRow(
        ("c1", "c2"), (0.0, 2.0 * math.pi), state=_cmorse_state,
        level=lambda f, n, c1, c2: _times_square(f.unit, 2.0 * c2 / c1 - n - 0.5),
        profile=lambda f, x, c1, c2: f.unit * (-4.0 * c1 * c1 * np.exp(-2j * x)
                                               + 8.0 * c2 * np.exp(-1j * x)),
        top=lambda c1, c2: 2.0 * c2 / c1 - 0.5,
        invalid=lambda c1, c2: c1 == 0, message="cMorse requires c1 != 0"),
    WAVE: ModelRow(  # the free particle on the circle: e^{inx}, unnormalized
        (), (0.0, 2.0 * math.pi), state=lambda f, n, x: np.exp(1j * n * x),
        level=lambda f, n: _times_square(f.unit, n), profile=lambda f, x: 0.0 * x, signed=True),
}
# the Morse shape past the ladder, or at a negative depth: no top and no oracle interval
MODELS[MORSE] = replace(MODELS[MORSE_BOUND], state=_morse_shape, top=None, scan=None)


def model_max_index(fam: ModelFamily):
    """Number of bound states minus one; None when the ladder is infinite."""
    if fam.row.top is None:
        return None
    s = fam.row.top(*fam.args)
    return math.floor(s - 1e-12) if s > 0 else -1


def _check_index(fam, n):
    if (n < 0 and not fam.row.signed) or n != int(n):
        raise LevelError("bound-state index must be a non-negative integer")
    top = model_max_index(fam)
    if top is not None and n > top:
        raise LevelError(f"{fam.tag} supports indices 0..{top}, got {n}")


def model_eigenvalue(fam: ModelFamily, n: int) -> float:
    """Closed-form bound-state energy of the model family."""
    _check_index(fam, n)
    return fam.row.level(fam, n, *fam.args)


def model_domain(tag: str):
    """Natural coordinate domain (open interval) of the model family ``tag``."""
    if tag not in MODELS:
        raise ParamError(f"unknown model family {tag!r}")
    return MODELS[tag].domain


def model_potential(fam: ModelFamily):
    """The defining potential profile U(x) as a vectorized callable."""
    return lambda x: fam.row.profile(fam, np.asarray(x), *fam.args)


# nothing fills these; perfbench/tracer.py reads their sizes
_W_CACHE: dict = {}
_NORM_CACHE: dict = {}


def model_eigenfunction(fam: ModelFamily, n, x):
    """Sample the level-n model eigenfunction at x, unit-normalized over the
    natural domain by its closed-form constant (the Hermite, Laguerre and Jacobi
    norms of DLMF §18.3; complex Morse states, ``Morse`` shapes, plane waves and
    growing partners are not).  A level beyond the ladder raises LevelError, a constant
    that overflows a double ParamError."""
    try:
        _check_index(fam, n)
        return fam.row.state(fam, int(n), np.asarray(x, dtype=float), *fam.args)
    except OverflowError:
        raise ParamError(f"the {fam.tag} eigenfunction at level {n} with parameters "
                         f"{fam.params} overflows a double") from None
