"""The superintegrable potentials on D_III and D_IV and their separations.

Five families live on D_III (V1..V5) and four on D_IV (V1..V4).  Each family
is evaluated in every chart for which a closed form exists, and
:func:`separated_problem` returns the effective 1D problem obtained by a
product ansatz in a separating chart.  Energy enters the 1D profiles as an
effective coupling (for D_III through the frequency w(E) = sqrt(-bE/2m), for
D_IV through index shifts like lambda^2 = k^2 - 2 m a_pm E / hbar^2).

Sign conventions.  The D_III families V2 and V3 are used with the
quantization convention aE - alpha = -hbar w N of the closed-form spectra;
relative to the potential expression (which carries "-alpha" in its bracket)
this amounts to reading the spectral alpha as the attractive coupling.  The
descriptors below follow the spectral convention so that the 1D oracle
closes; the 2D Hamiltonian gate for these two families is exact at alpha = 0.
For D_III V4 the nu-coupling enters the separated pair as -d2 nu, which is
the sign required by the Morse parameters of its separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, ParamError, UnsupportedChartError
from .geometry import (DIII, DIV, Chart, SpaceParams, chart_transform, conformal_factor,
                       elliptic_cartesian, validate_chart)
from . import specfun as sf

FAMILIES = {
    "DIII_V1": ("k1", "k2", "k3"),
    "DIII_V2": ("alpha", "k1", "k2"),
    "DIII_V3": ("alpha", "c1", "c2"),
    "DIII_V4": ("d1", "d2", "omega"),
    "DIII_V5": ("v0",),
    "DIV_V1": ("alpha", "k1", "k2", "omega"),
    "DIV_V2": ("k1", "k2", "k3"),
    "DIV_V3": ("c1", "c2", "c3"),
    "DIV_V4": ("k0",),
}


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family on one of the two spaces plus its couplings."""

    space: SpaceParams
    family: str
    couplings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParamError(f"unknown potential family {self.family!r}")
        want_space = DIII if self.family.startswith("DIII") else DIV
        if self.space.family != want_space:
            raise ParamError(f"{self.family} lives on {want_space}")
        allowed = FAMILIES[self.family]
        extra = set(self.couplings) - set(allowed)
        if extra:
            raise ParamError(f"{self.family} does not take couplings {sorted(extra)}")
        if not all(math.isfinite(self.c(k)) for k in self.couplings):
            raise ParamError(f"{self.family} couplings must be finite")
        if self.family == "DIII_V3" and self.c("c1") == 0.0:
            raise ParamError("DIII_V3 requires c1 != 0")
        if self.family == "DIV_V1" and self.c("omega") == 0.0:
            raise ParamError("DIV_V1 requires omega != 0")

    def c(self, name: str) -> float:
        """Coupling value; unset couplings default to 0."""
        return float(self.couplings.get(name, 0.0))


def _quantum_unit(space: SpaceParams) -> float:
    return space.hbar ** 2 / (2.0 * space.mass)


# ----------------------------------------------------------------------
# potential values
# ----------------------------------------------------------------------

def potential_value(spec: PotentialSpec, chart: Chart):
    """Potential at the chart point(s) (complex for DIII_V3).

    A point where the potential is singular raises DomainError.
    """
    validate_chart(spec.space, chart)
    # float arrays turn a division by zero into inf rather than ZeroDivisionError,
    # and give a single point the arithmetic of a grid (x**2 is x*x, not pow)
    pts = replace(chart, q1=np.atleast_1d(np.asarray(chart.q1, dtype=float)),
                  q2=np.atleast_1d(np.asarray(chart.q2, dtype=float)))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _closed_form(spec, pts)
    if not np.isfinite(val).all():
        raise DomainError(f"{spec.family} is singular at a point of chart {chart.name!r}")
    return val if np.ndim(chart.q1) or np.ndim(chart.q2) else val[0]


def _closed_form(spec: PotentialSpec, chart: Chart):
    sp = spec.space
    a, b = sp.a, sp.b
    hq = _quantum_unit(sp)
    q1, q2 = chart.q1, chart.q2
    fam, name = spec.family, chart.name

    if fam == "DIII_V1":
        k1, k2, k3 = spec.c("k1"), spec.c("k2"), spec.c("k3")
        if name == "uv":
            e = np.exp(-q1 / 2.0)
            num = 2.0 * k1 * e * np.cos(q2 / 2.0) + 2.0 * k2 * e * np.sin(q2 / 2.0) + k3
            return num / (a + b * np.exp(-q1))
        if name in ("parabolic", "polar", "elliptic"):
            xi, eta = _d3_cartesian(chart)
            return (k1 * xi + k2 * eta + k3) / (a + 0.25 * b * (xi * xi + eta * eta))
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    if fam == "DIII_V2":
        al, k1, k2 = spec.c("alpha"), spec.c("k1"), spec.c("k2")
        if name == "uv":
            cen = hq / 4.0 * np.exp(q1) * (
                (k1 * k1 - 0.25) / np.cos(q2 / 2.0) ** 2
                + (k2 * k2 - 0.25) / np.sin(q2 / 2.0) ** 2
            )
            return (-al + cen) / (a + b * np.exp(-q1))
        if name == "polar":
            cen = hq / q1 ** 2 * (
                (k1 * k1 - 0.25) / np.cos(q2) ** 2 + (k2 * k2 - 0.25) / np.sin(q2) ** 2
            )
            return (-al + cen) / (a + 0.25 * b * q1 ** 2)
        if name in ("parabolic", "elliptic"):
            xi, eta = _d3_cartesian(chart)
            cen = hq * ((k1 * k1 - 0.25) / xi ** 2 + (k2 * k2 - 0.25) / eta ** 2)
            return (-al + cen) / (a + 0.25 * b * (xi * xi + eta * eta))
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    if fam == "DIII_V3":
        al, c1, c2 = spec.c("alpha"), spec.c("c1"), spec.c("c2")
        if name == "uv":
            cen = hq * np.exp(q1) * (
                c1 * c1 * np.exp(-1j * q2) - 2.0 * c2 * np.exp(-2j * q2)
            )
            return (-al + cen) / (a + b * np.exp(-q1))
        if name == "polar":
            cen = 4.0 * hq / q1 ** 2 * (
                c1 * c1 * np.exp(-2j * q2) - 2.0 * c2 * np.exp(-4j * q2)
            )
            return (-al + cen) / (a + 0.25 * b * q1 ** 2)
        if name == "hyperbolic":
            mu, nu = q1, q2
            cen = hq * (c1 * c1 / (mu * nu) - c2 * (mu - nu) / (mu * nu) ** 2)
            return (-al + cen) / (a + 0.5 * b * (mu - nu))
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    if fam == "DIII_V4":
        d1, d2, om = spec.c("d1"), spec.c("d2"), spec.c("omega")
        if name == "hyperbolic":
            mu, nu = q1, q2
            num = d1 * mu - d2 * nu + 0.5 * sp.mass * om * om * (mu * mu - nu * nu)
            return num / ((a + 0.5 * b * (mu - nu)) * (mu + nu))
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    if fam == "DIII_V5":
        v0 = spec.c("v0")
        top = hq * v0 * v0
        if name == "uv":
            return top / (a + b * np.exp(-q1))
        if name in ("polar", "parabolic", "elliptic"):
            xi, eta = _d3_cartesian(chart)
            return top / (a + 0.25 * b * (xi * xi + eta * eta))
        if name == "hyperbolic":
            return top / (a + 0.5 * b * (q1 - q2))
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    if fam == "DIV_V2" and name == "degelliptic2":
        # evaluated through the chart map so the value is a chart scalar
        return _closed_form(spec, chart_transform(sp, chart, "uv"))
    # every D_IV form divides by the chart's conformal factor; the elliptic
    # forms are written in the horospherical (mu, nu) of the point
    if name in ("horospherical", "elliptic"):
        mu, nu = _d4_cartesian(chart)
        f = conformal_factor(sp, "horospherical", mu, nu)
    else:
        f = conformal_factor(sp, name, q1, q2)

    if fam == "DIV_V1":
        al, k1, k2, om = spec.c("alpha"), spec.c("k1"), spec.c("k2"), spec.c("omega")
        if name == "uv":
            num = (
                hq * ((k1 * k1 - 0.25) / np.cos(q1) ** 2 + (k2 * k2 - 0.25) / np.sin(q1) ** 2)
                - 4.0 * al * np.exp(2.0 * q2)
                + 8.0 * sp.mass * om * om * np.exp(4.0 * q2)
            )
            return num / f
        if name in ("horospherical", "elliptic"):
            num = (
                -al
                + hq * ((k1 * k1 - 0.25) / mu ** 2 + (k2 * k2 - 0.25) / nu ** 2)
                + 0.5 * sp.mass * om * om * (mu * mu + nu * nu)
            )
            return num / f
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    if fam == "DIV_V2":
        k1, k2, k3 = spec.c("k1"), spec.c("k2"), spec.c("k3")
        if name == "uv":
            num = hq * (
                (k1 * k1 - 0.25) / np.sinh(q2) ** 2
                - (k2 * k2 - 0.25) / np.cosh(q2) ** 2
                + (k3 * k3 - 0.25) * (1.0 / np.sin(q1) ** 2 + 1.0 / np.cos(q1) ** 2)
            )
            return num / f
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    if fam == "DIV_V3":
        c1, c2, c3 = spec.c("c1"), spec.c("c2"), spec.c("c3")
        if name == "degelliptic2":
            num = hq * (
                c1 / np.cos(q2) ** 2
                + c2 / np.cosh(q1) ** 2
                + c3 * (1.0 / np.sin(q2) ** 2 - 1.0 / np.sinh(q1) ** 2)
            )
            return num / f
        if name == "degelliptic1":
            num = hq * (
                c3 / np.sinh(q1) ** 2
                + c2 / np.cosh(q1) ** 2
                + c3 * (1.0 / np.sin(q2) ** 2 - 1.0 / np.cos(q2) ** 2)
            )
            return num / f
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    if fam == "DIV_V4":
        k0 = spec.c("k0")
        if name == "uv":
            num = hq * (k0 * k0 - 0.25) * (1.0 / np.sin(q1) ** 2 + 1.0 / np.cos(q1) ** 2)
            return num / f
        if name in ("horospherical", "elliptic"):
            num = hq * (k0 * k0 - 0.25) * (1.0 / mu ** 2 + 1.0 / nu ** 2)
            return num / f
        raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")

    raise UnsupportedChartError(f"{fam} has no form in chart {name!r}")


def _d3_cartesian(chart: Chart):
    """(xi, eta) of a D_III point given in a Cartesian-like chart."""
    if chart.name == "parabolic":
        return chart.q1, chart.q2
    if chart.name == "polar":
        return chart.q1 * np.cos(chart.q2), chart.q1 * np.sin(chart.q2)
    if chart.name == "elliptic":
        return elliptic_cartesian(chart)
    raise UnsupportedChartError(chart.name)


def _d4_cartesian(chart: Chart):
    """(mu, nu) of a D_IV point given in horospherical or elliptic form."""
    if chart.name == "horospherical":
        return chart.q1, chart.q2
    if chart.name == "elliptic":
        return elliptic_cartesian(chart)
    raise UnsupportedChartError(chart.name)


# ----------------------------------------------------------------------
# separated 1D problems
# ----------------------------------------------------------------------

@dataclass
class Separated1D:
    """Effective 1D problem for one separation variable at trial energy E.

    ``profile(E)`` returns the potential U_E(x); ``lam_req(E)`` the
    pseudo-eigenvalue required by the partner separation; ``factor(E, n)`` the
    analytic factor carrying this problem's quantum number n; ``window(E, n)``,
    where given, the interval on which that factor is sampled.  A root of the
    quantization condition is exactly an E at which the factor solves the
    problem at pseudo-eigenvalue lam_req(E).
    """

    domain: tuple
    profile: Callable
    lam_req: Callable
    factor: Callable
    window: Callable | None = None


def _omega_of(spec: PotentialSpec, E: float) -> float:
    """The D_III effective frequency sqrt(-bE/2m); requires bE < 0."""
    val = -spec.space.b * E / (2.0 * spec.space.mass)
    if val <= 0:
        raise DomainError("effective frequency requires bE < 0")
    return math.sqrt(val)


def ho_flipped_factor(mass, hbar, omega, n, shift=0.0):
    """Oscillator solution at level -hbar w (n + 1/2) (growing Gaussian)."""
    q = mass * omega / hbar

    def psi(x):
        y = np.asarray(x, dtype=float) + shift
        # the real polynomial i^{-n} H_n(i y)
        flip = np.real(1j ** -n * sf.orthopoly_eval("hermite", n, (), 1j * np.sqrt(q) * y))
        return flip * np.exp(0.5 * q * y * y)

    return psi


def rho_flipped_factor(mass, hbar, omega, lam, n):
    """Radial oscillator solution at level -hbar w (2n + lam + 1)."""
    q = mass * omega / hbar

    def psi(r):
        r = np.asarray(r, dtype=float)
        return (
            r ** (lam + 0.5)
            * np.exp(0.5 * q * r * r)
            * sf.orthopoly_eval("laguerre", n, (lam,), -q * r * r)
        )

    return psi


def morse_flipped_factor(beta, mu, n, sign=-1.0):
    """Exponential-profile solution at pseudo-level -(hbar^2/2m) mu^2.

    Returns psi(x) = w^mu e^{w/2} L_n^{2 mu}(-w) with w = beta e^{sign x};
    it solves -(hb^2/2m) psi'' + [(hb^2 beta^2/8m) e^{2 sign x}
    + (hb^2 beta (n + mu + 1/2)/2m) e^{sign x}] psi = -(hb^2/2m) mu^2 psi.
    """

    def psi(x):
        w = beta * np.exp(sign * np.asarray(x, dtype=float))
        return w ** mu * np.exp(0.5 * w) * sf.orthopoly_eval("laguerre", n, (2.0 * mu,), -w)

    return psi


def morse_bound_factor(v0, s, n):
    """Morse-type solution z^s e^{-z/2} L_n^{2s}(z), z = 2 v0 e^x.

    Solves -(hb^2/2m) psi'' + (hb^2 v0^2/2m)(e^{2x} - 2 at e^x) psi
    = -(hb^2/2m) s^2 psi with at v0 = s + n + 1/2; s may be negative
    (formal, growing branch).
    """

    def psi(x):
        z = 2.0 * v0 * np.exp(np.asarray(x, dtype=float))
        return z ** s * np.exp(-0.5 * z) * sf.orthopoly_eval("laguerre", n, (2.0 * s,), z)

    return psi


def cmorse_map(spec: PotentialSpec):
    """Map the DIII_V3 couplings to the complex-Morse family that actually
    solves its angular equation, plus the angular index lambda(l).

    Requires c2 > 0 (else the effective index is complex).
    """
    c1, c2 = spec.c("c1"), spec.c("c2")
    if c2 <= 0:
        raise ParamError("DIII_V3 separation implemented for c2 > 0")
    C1 = math.sqrt(c2 / 2.0)
    C2 = c1 * c1 / 8.0
    ratio = 2.0 * C2 / C1  # = c1^2 / (2 sqrt(2 c2))

    def lam_ang(l):
        return abs(2.0 * (ratio - l - 0.5))

    return C1, C2, lam_ang


def mpt_indices_div(spec: PotentialSpec, E: float):
    """lambda_pm = sqrt(k3^2 - 2 m a_pm E / hbar^2) for DIV_V2."""
    sp = spec.space
    k3 = spec.c("k3")
    lp = k3 * k3 - 2.0 * sp.mass * sp.a_plus * E / sp.hbar ** 2
    lm = k3 * k3 - 2.0 * sp.mass * sp.a_minus * E / sp.hbar ** 2
    if lp < 0 or lm < 0:
        raise DomainError("index sqrt(k3^2 - 2 m a_pm E) not real at this E")
    return math.sqrt(lp), math.sqrt(lm)


def div3_indices(spec: PotentialSpec, E):
    """The index roots of DIV_V3 (a_plus carries -c_i, a_minus +c_i).

    E may be an array of energies; each index then has its shape.  Indices
    whose square goes negative come back as NaN.
    """
    sp = spec.space
    hb2 = sp.hbar ** 2
    out = {}
    # np.sqrt is correctly rounded like math.sqrt, and NaN below 0
    with np.errstate(invalid="ignore"):
        for i, ci in ((1, spec.c("c1")), (2, spec.c("c2")), (3, spec.c("c3"))):
            for pm, apm, s in (("p", sp.a_plus, -1.0), ("m", sp.a_minus, +1.0)):
                out[f"{i}{pm}"] = np.sqrt(0.25 + s * ci - 2.0 * sp.mass * apm * E / hb2)
    return out


def div1_indices(spec: PotentialSpec, E: float):
    """lambda_1 = sqrt(k1^2 - 2 m a_- E), lambda_2 = sqrt(k2^2 - 2 m a_+ E)."""
    sp = spec.space
    l1 = spec.c("k1") ** 2 - 2.0 * sp.mass * sp.a_minus * E / sp.hbar ** 2
    l2 = spec.c("k2") ** 2 - 2.0 * sp.mass * sp.a_plus * E / sp.hbar ** 2
    if l1 < 0 or l2 < 0:
        raise DomainError("DIV_V1 index roots not real at this E")
    return math.sqrt(l1), math.sqrt(l2)


def div1_morse_family(spec: PotentialSpec) -> sf.ModelFamily:
    """The v-direction Morse family of DIV_V1 (in the doubled variable x=2v)."""
    sp = spec.space
    om, al = spec.c("omega"), spec.c("alpha")
    return sf.ModelFamily(
        sf.MORSE_BOUND,
        {"v0": 2.0 * sp.mass * om / sp.hbar, "alpha_t": al / (4.0 * sp.mass * om * om)},
        hbar=sp.hbar,
        mass=sp.mass / 4.0,
    )


def separated_problem(spec: PotentialSpec, chart_name: str, partner, axis: int = 0) -> Separated1D:
    """The separated 1D problem of ``spec`` in the named chart.

    ``partner`` is the partner factor's quantum number; ``axis`` selects which
    of the two separation variables the descriptor describes (0 = the one the
    closed-form solution integrates last, 1 = its partner).  ``factor(E, n)``
    returns the analytic factor with this variable's quantum number n.
    """
    sp = spec.space
    hb, m = sp.hbar, sp.mass
    hq = _quantum_unit(sp)
    a, b = sp.a, sp.b
    fam = spec.family
    pq = partner

    # ---------------- D_III V1, parabolic (xi or eta) ----------------
    if fam == "DIII_V1" and chart_name == "parabolic":
        k_own = spec.c("k1") if axis == 0 else spec.c("k2")
        k_oth = spec.c("k2") if axis == 0 else spec.c("k1")
        k3 = spec.c("k3")
        n_oth = int(pq)

        def profile(E):
            w = _omega_of(spec, E)
            return lambda x: 0.5 * m * w * w * np.asarray(x) ** 2 + k_own * np.asarray(x)

        def lam_req(E):
            w = _omega_of(spec, E)
            e_oth = -hb * w * (n_oth + 0.5) - k_oth * k_oth / (2.0 * m * w * w)
            return a * E - k3 - e_oth

        def factor(E, n):
            w = _omega_of(spec, E)
            return ho_flipped_factor(m, hb, w, int(n), shift=k_own / (m * w * w))

        def window(E, n):
            w = _omega_of(spec, E)
            half = math.sqrt(18.0 * hb / (m * w))
            s = k_own / (m * w * w)
            return (-s - half, -s + half)

        return Separated1D((-math.inf, math.inf), profile, lam_req, factor, window)

    # ---------------- D_III V2/V3/V5, uv chart (u variable) ----------------
    if fam in ("DIII_V2", "DIII_V5") and chart_name == "uv" and axis == 0:
        if fam == "DIII_V2":
            mu_idx = 0.5 * (2.0 * int(pq) + 1.0 + abs(spec.c("k1")) + abs(spec.c("k2")))
        else:
            mu_idx = abs(float(pq))

        def profile(E):
            if fam == "DIII_V2":
                c1 = spec.c("alpha") - a * E
            else:
                c1 = hq * spec.c("v0") ** 2 - a * E
            return lambda u: (-b * E) * np.exp(-2.0 * np.asarray(u)) + c1 * np.exp(-np.asarray(u))

        def lam_req(E):
            return -hq * mu_idx ** 2

        def factor(E, n):
            beta = math.sqrt(-8.0 * m * b * E) / hb
            return morse_flipped_factor(beta, mu_idx, int(n), sign=-1.0)

        def window(E, n):
            beta = math.sqrt(-8.0 * m * b * E) / hb
            return (math.log(beta / 12.0), math.log(beta / 0.05))

        return Separated1D((-math.inf, math.inf), profile, lam_req, factor, window)

    # ------------- D_III V2/V3/V5, polar chart (rho variable) -------------
    if fam in ("DIII_V2", "DIII_V3", "DIII_V5") and chart_name == "polar" and axis == 0:
        if fam == "DIII_V2":
            lam_ang = 2.0 * int(pq) + abs(spec.c("k1")) + abs(spec.c("k2")) + 1.0
            coupling = spec.c("alpha")
        elif fam == "DIII_V3":
            _, _, lam_of = cmorse_map(spec)
            lam_ang = lam_of(int(pq))
            coupling = spec.c("alpha")
        else:
            lam_ang = abs(int(pq))
            coupling = hq * spec.c("v0") ** 2

        def profile(E):
            return lambda r: (-0.25 * b * E) * np.asarray(r) ** 2 + hq * (
                lam_ang * lam_ang - 0.25
            ) / np.asarray(r) ** 2

        def lam_req(E):
            return a * E - coupling

        def factor(E, n):
            w = _omega_of(spec, E)
            return rho_flipped_factor(m, hb, w, lam_ang, int(n))

        def window(E, n):
            q = m * _omega_of(spec, E) / hb
            return (0.35 / math.sqrt(q) / math.sqrt(lam_ang + 1.0), math.sqrt(28.0 / q))

        return Separated1D((0.0, math.inf), profile, lam_req, factor, window)

    # -------------- D_III V3, polar chart (phi variable) --------------
    if fam == "DIII_V3" and chart_name == "polar" and axis == 1:
        C1, C2, lam_of = cmorse_map(spec)
        cm = sf.ModelFamily(sf.CMORSE, {"c1": C1, "c2": C2}, hbar=hb, mass=m)

        def profile(E):
            return lambda phi: 4.0 * hq * (
                spec.c("c1") ** 2 * np.exp(-2j * np.asarray(phi))
                - 2.0 * spec.c("c2") * np.exp(-4j * np.asarray(phi))
            )

        def lam_req(E):
            return hq * lam_of(int(pq)) ** 2

        def factor(E, n):
            return lambda phi: sf.model_eigenfunction(cm, int(n), 2.0 * np.asarray(phi))

        return Separated1D((0.0, 2.0 * math.pi), profile, lam_req, factor)

    # -------------- D_III V2/V5, parabolic chart (xi/eta) --------------
    if fam in ("DIII_V2", "DIII_V5") and chart_name == "parabolic":
        n_oth = int(pq)
        if fam == "DIII_V2":
            k_own = abs(spec.c("k1")) if axis == 0 else abs(spec.c("k2"))
            k_oth = abs(spec.c("k2")) if axis == 0 else abs(spec.c("k1"))
            coupling = spec.c("alpha")

            def e_oth(E):
                return -hb * _omega_of(spec, E) * (2.0 * n_oth + k_oth + 1.0)

            def profile(E):
                w = _omega_of(spec, E)
                return lambda x: 0.5 * m * w * w * np.asarray(x) ** 2 + hq * (
                    k_own * k_own - 0.25
                ) / np.asarray(x) ** 2

            def factor(E, n):
                return rho_flipped_factor(m, hb, _omega_of(spec, E), k_own, int(n))

            dom = (0.0, math.inf)
        else:
            coupling = hq * spec.c("v0") ** 2

            def e_oth(E):
                return -hb * _omega_of(spec, E) * (n_oth + 0.5)

            def profile(E):
                w = _omega_of(spec, E)
                return lambda x: 0.5 * m * w * w * np.asarray(x) ** 2

            def factor(E, n):
                return ho_flipped_factor(m, hb, _omega_of(spec, E), int(n))

            dom = (-math.inf, math.inf)

        def lam_req(E):
            return a * E - coupling - e_oth(E)

        def window(E, n):
            q = m * _omega_of(spec, E) / hb
            hi = math.sqrt(18.0 / q)
            return (0.3 / math.sqrt(q * hi), hi) if dom[0] == 0.0 else (-hi, hi)

        return Separated1D(dom, profile, lam_req, factor, window)

    # -------------- D_III V4, hyperbolic chart (x = ln mu, y = ln nu) -----
    if fam == "DIII_V4" and chart_name == "hyperbolic":
        d1, d2, om = spec.c("d1"), spec.c("d2"), spec.c("omega")
        n_oth = int(pq)

        def v0_of(E):
            val = m * (m * om * om - b * E)
            if val <= 0:
                raise DomainError("DIII_V4 requires E < m w^2 / b")
            return math.sqrt(val) / hb

        def at_own(E):
            num = (a * E - d1) if axis == 0 else -(a * E + d2)
            return num / (m * om * om - b * E)

        def at_oth(E):
            num = -(a * E + d2) if axis == 0 else (a * E - d1)
            return num / (m * om * om - b * E)

        def profile(E):
            quad = 0.5 * (m * om * om - b * E)
            lin = (d1 - a * E) if axis == 0 else (d2 + a * E)
            return lambda x: quad * np.exp(2.0 * np.asarray(x)) + lin * np.exp(np.asarray(x))

        def lam_req(E):
            return -hq * (at_oth(E) * v0_of(E) - n_oth - 0.5) ** 2

        def factor(E, n):
            s = at_own(E) * v0_of(E) - int(n) - 0.5
            return morse_bound_factor(v0_of(E), s, int(n))

        def window(E, n):
            v0 = v0_of(E)
            return (math.log(0.05 / (2.0 * v0)), math.log(12.0 / (2.0 * v0)))

        return Separated1D((-math.inf, math.inf), profile, lam_req, factor, window)

    # -------------- D_III V5, hyperbolic chart --------------
    if fam == "DIII_V5" and chart_name == "hyperbolic":
        v0c = spec.c("v0")
        n_oth = int(pq)

        def vt_of(E):
            return math.sqrt(-m * E * b) / hb

        def ktilde(E):
            return (hq * v0c * v0c - a * E) * math.sqrt(-m / (E * b)) / hb

        if axis == 0:
            # x = ln mu: growing-exponential side, flipped factor
            def profile(E):
                return lambda x: (-0.5 * b * E) * np.exp(2.0 * np.asarray(x)) + (
                    hq * v0c * v0c - a * E
                ) * np.exp(np.asarray(x))

            def lam_req(E):
                return -hq * (ktilde(E) - n_oth - 0.5) ** 2

            def factor(E, n):
                mu = ktilde(E) - int(n) - 0.5
                return morse_flipped_factor(2.0 * vt_of(E), mu, int(n), sign=+1.0)

            def window(E, n):
                vt = vt_of(E)
                return (math.log(0.05 / (2.0 * vt)), math.log(12.0 / (2.0 * vt)))

            return Separated1D((-math.inf, math.inf), profile, lam_req, factor, window)
        else:
            # y = ln nu: genuine Morse well
            def profile(E):
                return lambda y: (-0.5 * b * E) * np.exp(2.0 * np.asarray(y)) + (
                    a * E - hq * v0c * v0c
                ) * np.exp(np.asarray(y))

            def lam_req(E):
                mu = ktilde(E) - n_oth - 0.5
                return -hq * mu ** 2

            def factor(E, n):
                s = ktilde(E) - int(n) - 0.5
                return morse_bound_factor(vt_of(E), s, int(n))

            def window(E, n):
                vt = vt_of(E)
                return (math.log(0.05 / (2.0 * vt)), math.log(12.0 / (2.0 * vt)))

            return Separated1D((-math.inf, math.inf), profile, lam_req, factor, window)

    # -------------- D_IV V1, uv chart --------------
    if fam == "DIV_V1" and chart_name == "uv":
        al, om = spec.c("alpha"), spec.c("omega")
        morse_fam = div1_morse_family(spec)
        n_oth = int(pq)
        if axis == 0:
            def profile(E):
                l1, l2 = div1_indices(spec, E)
                return lambda u: hq * (
                    (l2 * l2 - 0.25) / np.sin(u) ** 2 + (l1 * l1 - 0.25) / np.cos(u) ** 2
                )

            def lam_req(E):
                return -_div1_v_level(spec, n_oth)

            def factor(E, n):
                l1, l2 = div1_indices(spec, E)
                pt = sf.ModelFamily(sf.PT, {"alpha": l2, "beta": l1}, hbar=hb, mass=m)
                return lambda u: sf.model_eigenfunction(pt, int(n), np.asarray(u))

            return Separated1D((0.0, math.pi / 2.0), profile, lam_req, factor,
                               lambda E, n: (0.15, math.pi / 2.0 - 0.15))
        else:
            def profile(E):
                return lambda v: 8.0 * m * om * om * np.exp(4.0 * np.asarray(v)) - 4.0 * al * np.exp(
                    2.0 * np.asarray(v)
                )

            def lam_req(E):
                l1, l2 = div1_indices(spec, E)
                return -hq * (2.0 * n_oth + l1 + l2 + 1.0) ** 2

            def factor(E, n):
                return lambda v: sf.model_eigenfunction(morse_fam, int(n), 2.0 * np.asarray(v))

            def window(E, n):
                v0m = morse_fam.p("v0")
                return (0.5 * math.log(0.05 / (2.0 * v0m)), 0.5 * math.log(25.0 / (2.0 * v0m)))

            return Separated1D((-math.inf, math.inf), profile, lam_req, factor, window)

    # -------------- D_IV V1, horospherical chart --------------
    if fam == "DIV_V1" and chart_name == "horospherical":
        al, om = spec.c("alpha"), spec.c("omega")
        n_oth = int(pq)

        def idx(E):
            l1, l2 = div1_indices(spec, E)
            return (l1, l2) if axis == 0 else (l2, l1)

        def profile(E):
            lo, _ = idx(E)
            return lambda r: 0.5 * m * om * om * np.asarray(r) ** 2 + hq * (
                lo * lo - 0.25
            ) / np.asarray(r) ** 2

        def lam_req(E):
            _, lt = idx(E)
            return al - hb * om * (2.0 * n_oth + lt + 1.0)

        def factor(E, n):
            lo, _ = idx(E)
            rho = sf.ModelFamily(sf.RHO, {"omega": om, "lam": lo}, hbar=hb, mass=m)
            return lambda r: sf.model_eigenfunction(rho, int(n), np.asarray(r))

        def window(E, n):
            q = m * om / hb
            return (0.25 / math.sqrt(q), math.sqrt(30.0 / q))

        return Separated1D((0.0, math.inf), profile, lam_req, factor, window)

    # -------------- D_IV V2, uv chart --------------
    if fam == "DIV_V2" and chart_name == "uv":
        k1, k2 = abs(spec.c("k1")), abs(spec.c("k2"))
        n_oth = int(pq)
        mpt_v = sf.ModelFamily(sf.MPT_BOUND, {"eta": k1, "nu": k2}, hbar=hb, mass=m)
        if axis == 0:
            def profile(E):
                lp, lm = mpt_indices_div(spec, E)
                return lambda u: hq * (
                    (lp * lp - 0.25) / np.sin(u) ** 2 + (lm * lm - 0.25) / np.cos(u) ** 2
                )

            def lam_req(E):
                return -sf.model_eigenvalue(mpt_v, n_oth)

            def factor(E, n):
                lp, lm = mpt_indices_div(spec, E)
                pt = sf.ModelFamily(sf.PT, {"alpha": lp, "beta": lm}, hbar=hb, mass=m)
                return lambda u: sf.model_eigenfunction(pt, int(n), np.asarray(u))

            return Separated1D((0.0, math.pi / 2.0), profile, lam_req, factor,
                               lambda E, n: (0.15, math.pi / 2.0 - 0.15))
        else:
            def profile(E):
                return lambda v: hq * (
                    (k1 * k1 - 0.25) / np.sinh(v) ** 2 - (k2 * k2 - 0.25) / np.cosh(v) ** 2
                )

            def lam_req(E):
                lp, lm = mpt_indices_div(spec, E)
                return -hq * (2.0 * n_oth + lp + lm + 1.0) ** 2

            def factor(E, n):
                return lambda v: sf.model_eigenfunction(mpt_v, int(n), np.asarray(v))

            return Separated1D((0.0, math.inf), profile, lam_req, factor, lambda E, n: (0.8, 6.5))

    # -------------- D_IV V3, degenerate elliptic II --------------
    if fam == "DIV_V3" and chart_name == "degelliptic2":
        n_oth = int(pq)
        if axis == 1:
            def profile(E):
                lam = div3_indices(spec, E)
                return lambda p: hq * (
                    (lam["3m"] ** 2 - 0.25) / np.sin(p) ** 2
                    + (lam["1m"] ** 2 - 0.25) / np.cos(p) ** 2
                )

            def lam_req(E):
                lam = div3_indices(spec, E)
                return hq * (lam["2p"] - lam["3p"] - 2.0 * n_oth - 1.0) ** 2

            def factor(E, n):
                lam = div3_indices(spec, E)
                pt = sf.ModelFamily(sf.PT, {"alpha": lam["3m"], "beta": lam["1m"]},
                                    hbar=hb, mass=m)
                return lambda p: sf.model_eigenfunction(pt, int(n), np.asarray(p))

            return Separated1D((0.0, math.pi / 4.0), profile, lam_req, factor,
                               lambda E, n: (0.12, math.pi / 4.0 - 0.02))
        else:
            def profile(E):
                lam = div3_indices(spec, E)
                return lambda w: hq * (
                    (lam["3p"] ** 2 - 0.25) / np.sinh(w) ** 2
                    - (lam["2p"] ** 2 - 0.25) / np.cosh(w) ** 2
                )

            def lam_req(E):
                lam = div3_indices(spec, E)
                return -hq * (2.0 * n_oth + lam["3m"] + lam["1m"] + 1.0) ** 2

            def factor(E, n):
                lam = div3_indices(spec, E)
                mpt = sf.ModelFamily(sf.MPT_BOUND, {"eta": lam["3p"], "nu": lam["2p"]},
                                     hbar=hb, mass=m)
                return lambda w: sf.model_eigenfunction(mpt, int(n), np.asarray(w))

            return Separated1D((0.0, math.inf), profile, lam_req, factor, lambda E, n: (0.3, 10.0))

    # -------------- D_IV V4, uv chart (tau form) --------------
    if fam == "DIV_V4" and chart_name == "uv":
        k0 = spec.c("k0")
        kv = float(pq)

        def lam0(E):
            val = k0 * k0 - 2.0 * m * sp.a_minus * E / hb ** 2
            if val < 0:
                raise DomainError("lambda_0^2 < 0")
            return math.sqrt(val)

        def profile(E):
            l0 = lam0(E)
            return lambda t: hq * (
                (l0 * l0 - 0.25) / np.sinh(t) ** 2 + (kv * kv + 0.25) / np.cosh(t) ** 2
            )

        def lam_req(E):
            return sp.a_plus * E - hq * k0 * k0

        def factor(E, p=None):
            l0 = lam0(E)
            pm = math.sqrt(max((2.0 * m * sp.a_plus * E / hb ** 2 - k0 * k0), 1e-12))
            fam_s = sf.ModelFamily(sf.MPT_SCATTER, {"eta": l0, "nu": 1j * kv}, hbar=hb, mass=m)
            return lambda t: sf.model_eigenfunction(fam_s, pm, np.asarray(t))

        return Separated1D((0.0, math.inf), profile, lam_req, factor, lambda E, n: (0.1, 8.0))

    raise UnsupportedChartError(f"{fam} is not separated in chart {chart_name!r} (axis {axis})")


def _div1_v_level(spec: PotentialSpec, l: int) -> float:
    """Morse level of the DIV_V1 v-problem (doubled-variable convention)."""
    sp = spec.space
    om, al = spec.c("omega"), spec.c("alpha")
    s = al / (2.0 * sp.hbar * om) - l - 0.5
    return -2.0 * sp.hbar ** 2 / sp.mass * s * s
