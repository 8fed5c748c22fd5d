"""One record per superintegrable potential family on D_III and D_IV.

Five families live on D_III (V1..V5) and four on D_IV (V1..V4), after
Kalnins, Kress, Miller and Winternitz, J. Math. Phys. 44, 5811 (2003).  A
record holds everything specific to its family: its couplings, its closed
form per chart, its separations keyed by (chart, axis) with their windows
and natural intervals,
the charts its states are counted and assembled in, its squared quantization
condition with the unsquared gap and decay rule that judge the roots, its
continuous dispersion and asymptotic pair, and its extra constants of motion.
``FAMILIES`` maps each family name to its record.

Energy enters the separated 1D profiles as an effective coupling: on D_III
through the frequency w(E) = sqrt(-bE/2m), on D_IV through index shifts like
lambda^2 = k^2 - 2 m a_pm E / hbar^2.  What the families share stays in its
module: the division by the D_III factor or the D_IV conformal factor in
``potentials``, root finding and admissibility in ``spectra``, grid assembly
in ``wavefun``.  Records call the public functions of those modules through
the module, at call time.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import itemgetter

import numpy as np

from .errors import DomainError, ParamError, UnsupportedChartError, UnsupportedError
from .geometry import DIII, DIV, d3_factor, elliptic_cartesian
from . import potentials, specfun as sf

# An angle in place of a separated second axis: its length, and the margin
# the default grid keeps from its ends.
Angle = namedtuple("Angle", "length pad")
CIRCLE = Angle(2.0 * math.pi, 0.05)


def _gap_pair(lhs, rhs, floor=1e-300):
    """(|lhs - rhs|, |lhs + rhs|) normalized by the larger side, or by
    ``floor`` if that is larger."""
    sc = max(abs(lhs), abs(rhs), floor)
    return (abs(lhs - rhs) / sc, abs(lhs + rhs) / sc)


def _units(spec):
    """(a, b, mass, hbar, hbar^2/2m) of the spec's space."""
    sp = spec.space
    return sp.a, sp.b, sp.mass, sp.hbar, potentials._quantum_unit(sp)


def _model_factor(spec, tag, params, n, scale=1.0):
    """The level-n eigenfunction of a model family of ``specfun``, at scale * x."""
    fam = sf.ModelFamily(tag, params, hbar=spec.space.hbar, mass=spec.space.mass)
    return lambda x: sf.model_eigenfunction(fam, int(n), scale * np.asarray(x))


class Family:
    """A potential family.  Records hold no state (every method takes the
    PotentialSpec), and the defaults say that a family lacks an operation."""

    space = DIII
    couplings: tuple = ()
    nonzero: tuple = ()      # couplings that must not vanish
    schemes: tuple = ()      # charts its states are counted and assembled in
    pullbacks: dict = {}     # assembly chart -> default grid spans of the pulled-back (u, v) state
    angles: dict = {}        # chart -> Angle of its second axis
    separations: dict = {}   # (chart, axis) -> separated problem
    transcendental = False   # quantized by a bracket scan rather than by polynomial roots

    @property
    def name(self):
        return type(self).__name__

    def form(self, spec, chart):
        """The numerator of the potential at the chart points: over the
        D_III factor ``geometry.d3_factor`` on D_III, over the chart's
        conformal factor on D_IV, with D_IV elliptic points given as their
        horospherical (mu, nu)."""
        raise UnsupportedChartError(f"{self.name} has no form in chart {chart.name!r}")

    def separation(self, spec, chart, partner, axis):
        """The separated 1D problem of one axis of a chart (see ``separated_problem``)."""
        sep = self.separations.get((chart, axis))
        if sep is None:
            raise UnsupportedChartError(
                f"{self.name} is not separated in chart {chart!r} (axis {axis})")
        return sep(self, spec, partner, axis)

    def angular_factor(self, spec, chart, qn):
        """The factor of an angle in ``angles`` that is not separated, or None."""
        return None

    def count(self, spec, qn):
        """The composite quantum number entering the squared condition."""
        raise UnsupportedError(f"no composite count for {self.name}")

    def branches(self, spec, qn):
        """Coefficient tuples (highest power of E first) of every branch of the
        squared quantization condition."""
        raise UnsupportedError(f"{self.name} has no polynomial quantization condition")

    def unsquared_gap(self, spec, qn, E):
        """(gap with principal signs, gap with flipped sign) of the unsquared
        condition, both normalized; DomainError when a square root goes complex.
        A condition never squared has no sign to flip: its second slot is 1.0."""
        raise UnsupportedError(self.name)

    def decays(self, spec, qn, E):
        """Does the family's stated decay criterion hold for this root?"""
        return False

    def dispersion(self, spec, p, aux):
        raise UnsupportedError(f"{self.name} has no continuous branch")

    def asymptotic(self, spec, qn, branch):
        raise UnsupportedError(f"{self.name} has no asymptotic pair")

    def constant(self, spec, name, state):
        raise UnsupportedError(f"{self.name} has no implemented constant {name!r}")


# ----------------------------------------------------------------------
# D_III
# ----------------------------------------------------------------------

def _omega_of(spec, E: float) -> float:
    """The D_III effective frequency sqrt(-bE/2m); requires bE < 0."""
    val = -spec.space.b * E / (2.0 * spec.space.mass)
    if val <= 0:
        raise DomainError("effective frequency requires bE < 0")
    return math.sqrt(val)


def _d3_cartesian(chart):
    """(xi, eta) of a D_III point given in a Cartesian-like chart."""
    if chart.name == "parabolic":
        return chart.q1, chart.q2
    if chart.name == "polar":
        return chart.q1 * np.cos(chart.q2), chart.q1 * np.sin(chart.q2)
    return elliptic_cartesian(chart)


def _flipped_ho(spec, partner, k_own, k_oth, c):
    """A Cartesian axis of D_III: the flipped oscillator in w(E) with linear
    term k_own x, whose partner axis has the linear coefficient k_oth and the
    level ``partner``; c is the shift of a E - c in the condition."""
    a, _, m, hb, _ = _units(spec)
    n_oth = int(partner)

    def profile(E):
        w = _omega_of(spec, E)
        return lambda x: 0.5 * m * w * w * np.asarray(x) ** 2 + k_own * np.asarray(x)

    def lam_req(E):
        w = _omega_of(spec, E)
        e_oth = -hb * w * (n_oth + 0.5) - k_oth * k_oth / (2.0 * m * w * w)
        return a * E - c - e_oth

    def factor(E, n):
        # the oscillator solution at level -hbar w (n + 1/2), a growing Gaussian
        w = _omega_of(spec, E)
        q, shift, n = m * w / hb, k_own / (m * w * w), int(n)

        def psi(x):
            y = np.asarray(x, dtype=float) + shift
            # the real polynomial i^{-n} H_n(i y)
            flip = np.real(1j ** -n * sf.orthopoly_eval("hermite", n, (), 1j * np.sqrt(q) * y))
            return flip * np.exp(0.5 * q * y * y)

        return psi

    def window(E, n):
        w = _omega_of(spec, E)
        half = math.sqrt(18.0 * hb / (m * w))
        s = k_own / (m * w * w)
        return (-s - half, -s + half)

    return potentials.Separated1D(profile, lam_req, factor, window, (-math.inf, math.inf))


def _flipped_rho(spec, lam, lam_req, window):
    """A radial axis of D_III: the radial oscillator in w(E) with index lam,
    solved at its flipped level -hbar w (2n + lam + 1); ``window(q)`` gives
    the sampling interval from q = m w / hbar."""
    _, _, m, hb, _ = _units(spec)

    def q_of(E):
        return m * _omega_of(spec, E) / hb

    def profile(E):
        return sf.model_potential(
            sf.ModelFamily(sf.RHO, {"omega": _omega_of(spec, E), "lam": lam}, hbar=hb, mass=m))

    def factor(E, n):
        q, n = q_of(E), int(n)

        def psi(r):
            r = np.asarray(r, dtype=float)
            lag = sf.orthopoly_eval("laguerre", n, (lam,), -q * r * r)
            return r ** (lam + 0.5) * np.exp(0.5 * q * r * r) * lag

        return psi

    return potentials.Separated1D(profile, lam_req, factor, lambda E, n: window(q_of(E)),
                                  (0.0, math.inf))


def _morse_axis(k, quad, lin, scale, index, lam_req, sigma):
    """A log-variable axis with the profile quad(E) e^{2kx} + lin(E) e^{kx},
    solved by ``specfun.morse_factor`` of sign ``sigma`` in z = scale(E) e^{kx}
    at the index index(E, n), and sampled where 0.05 < z < 12."""

    def profile(E):
        q, li = quad(E), lin(E)
        return lambda x: q * np.exp(2.0 * k * np.asarray(x)) + li * np.exp(k * np.asarray(x))

    def factor(E, n):
        c, s, n = scale(E), index(E, int(n)), int(n)
        return lambda x: sf.morse_factor(c * np.exp(k * np.asarray(x, dtype=float)), s, n, sigma)

    def window(E, n):
        c = scale(E)
        lo, hi = (c / 12.0, c / 0.05) if k < 0 else (0.05 / c, 12.0 / c)
        return (math.log(lo), math.log(hi))

    return potentials.Separated1D(profile, lam_req, factor, window, (-math.inf, math.inf))


class DIIIFamily(Family):
    """A D_III family; its roots decay when b/a > 0 and E < 0."""

    def decays(self, spec, qn, E):
        return spec.space.b / spec.space.a > 0 and E < 0


class DIII_V1(DIIIFamily):
    """(k1 xi + k2 eta + k3) / (a + b (xi^2 + eta^2)/4), separated in the
    parabolic chart; its squared condition is a quartic in E."""

    couplings = ("k1", "k2", "k3")
    schemes = ("parabolic",)

    def form(self, spec, chart):
        k1, k2, k3 = spec.c("k1"), spec.c("k2"), spec.c("k3")
        if chart.name == "uv":
            e = np.exp(-chart.q1 / 2.0)
            return 2.0 * k1 * e * np.cos(chart.q2 / 2.0) + 2.0 * k2 * e * np.sin(chart.q2 / 2.0) + k3
        if chart.name in ("parabolic", "polar", "elliptic"):
            xi, eta = _d3_cartesian(chart)
            return k1 * xi + k2 * eta + k3
        return super().form(spec, chart)

    def _parabolic(self, spec, partner, axis):
        k = (spec.c("k1"), spec.c("k2"))
        return _flipped_ho(spec, partner, k[axis], k[1 - axis], spec.c("k3"))

    separations = {("parabolic", 0): _parabolic, ("parabolic", 1): _parabolic}

    def count(self, spec, qn):
        return qn.n + qn.l + 1.0

    def branches(self, spec, qn):
        a, b, m, hb, _ = _units(spec)
        if a * a * b * b == 0:
            raise ParamError(f"DIII_V1 condition divides by (a b)^2, which is 0 at "
                             f"a = {a!r}, b = {b!r}")
        c = spec.c("k1") ** 2 + spec.c("k2") ** 2
        k3 = spec.c("k3")
        N = self.count(spec, qn)
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

    def unsquared_gap(self, spec, qn, E):
        a, _, m, hb, _ = _units(spec)
        w = _omega_of(spec, E)
        c = spec.c("k1") ** 2 + spec.c("k2") ** 2
        N = self.count(spec, qn)
        return _gap_pair(a * E - spec.c("k3") + c / (2.0 * m * w * w), hb * w * N)


class Shifted(DIIIFamily):
    """V2, V3 and V5 of D_III, quantized by a E - c = -s hbar w M with an
    energy shift c and a composite count M.

    Sign convention: the shift c of V2 and V3 is their alpha read as the
    attractive coupling, the convention of the closed-form spectra.  Their
    potentials carry "-alpha" in the bracket, so the separations follow the
    spectral convention for the 1D oracle to close, and the 2D Hamiltonian
    gate of these two families is exact at alpha = 0.
    """

    def shift(self, spec):
        return spec.c("alpha")

    def scale(self, qn):
        """The s of the condition."""
        return 1.0

    def _uv(self, spec, partner, axis):
        """u of the (u, v) chart: a flipped Morse problem in e^{-u}."""
        a, b, m, hb, hq = _units(spec)
        mu_idx = self._uv_index(spec, partner)
        return _morse_axis(-1, lambda E: -b * E, lambda E: self.shift(spec) - a * E,
                           lambda E: math.sqrt(-8.0 * m * b * E) / hb, lambda E, n: mu_idx,
                           lambda E: -hq * mu_idx ** 2, -1)

    def _polar(self, spec, partner, axis):
        """The radius of the polar chart: a flipped radial oscillator."""
        a, coupling = spec.space.a, self.shift(spec)
        lam_ang = self._polar_index(spec, partner)
        return _flipped_rho(spec, lam_ang, lambda E: a * E - coupling, lambda q: (
            0.35 / math.sqrt(q) / math.sqrt(lam_ang + 1.0), math.sqrt(28.0 / q)))

    def branches(self, spec, qn):
        # (a E - c)^2 = -s hbar^2 M^2 b E / (2m)
        a, b, m, hb, _ = _units(spec)
        c = self.shift(spec)
        M = self.count(spec, qn)
        B = self.scale(qn) * hb ** 2 * M * M * b / (2.0 * m)
        return [(a ** 2, B - 2.0 * a * c, c * c)]

    def unsquared_gap(self, spec, qn, E):
        w = _omega_of(spec, E)
        M = self.count(spec, qn)
        return _gap_pair(spec.space.a * E - self.shift(spec),
                         math.sqrt(self.scale(qn)) * spec.space.hbar * w * M)

    def asymptotic(self, spec, qn, branch):
        """'minus' is the deep oscillator-like branch, 'plus' the shallow
        Coulomb-like one."""
        a, b, m, hb, _ = _units(spec)
        al = spec.c("alpha")
        N = self.count(spec, qn)
        if branch == "minus":
            return -b * hb * hb * N * N / (2.0 * m * a * a) + 2.0 * al / a
        if branch == "plus":
            return -2.0 * m * al * al / (b * hb * hb * N * N)
        raise ParamError(f"unknown branch {branch!r}")


class DIII_V2(Shifted):
    """Centrifugal terms (k1^2 - 1/4)/xi^2 and (k2^2 - 1/4)/eta^2 minus alpha,
    over the D_III factor; the angle of the uv and polar charts carries a
    Poeschl-Teller factor."""

    couplings = ("alpha", "k1", "k2")
    schemes = ("uv", "polar", "parabolic")
    angles = {"uv": Angle(math.pi, 0.1), "polar": Angle(math.pi / 2.0, 0.05)}

    def form(self, spec, chart):
        hq = potentials._quantum_unit(spec.space)
        al, k1, k2 = spec.c("alpha"), spec.c("k1"), spec.c("k2")
        q1, q2 = chart.q1, chart.q2
        if chart.name == "uv":
            cen = hq / 4.0 * np.exp(q1) * (
                (k1 * k1 - 0.25) / np.cos(q2 / 2.0) ** 2
                + (k2 * k2 - 0.25) / np.sin(q2 / 2.0) ** 2
            )
            return -al + cen
        if chart.name == "polar":
            cen = hq / q1 ** 2 * (
                (k1 * k1 - 0.25) / np.cos(q2) ** 2 + (k2 * k2 - 0.25) / np.sin(q2) ** 2
            )
            return -al + cen
        if chart.name in ("parabolic", "elliptic"):
            xi, eta = _d3_cartesian(chart)
            cen = hq * ((k1 * k1 - 0.25) / xi ** 2 + (k2 * k2 - 0.25) / eta ** 2)
            return -al + cen
        return super().form(spec, chart)

    def _uv_index(self, spec, partner):
        return 0.5 * (2.0 * int(partner) + 1.0 + abs(spec.c("k1")) + abs(spec.c("k2")))

    def _polar_index(self, spec, partner):
        return 2.0 * int(partner) + abs(spec.c("k1")) + abs(spec.c("k2")) + 1.0

    def _parabolic(self, spec, partner, axis):
        """xi or eta > 0: a flipped radial oscillator."""
        a, hb, n_oth = spec.space.a, spec.space.hbar, int(partner)
        k_own = abs(spec.c("k1")) if axis == 0 else abs(spec.c("k2"))
        k_oth = abs(spec.c("k2")) if axis == 0 else abs(spec.c("k1"))
        coupling = spec.c("alpha")

        def lam_req(E):
            return a * E - coupling + hb * _omega_of(spec, E) * (2.0 * n_oth + k_oth + 1.0)

        def window(q):
            hi = math.sqrt(18.0 / q)
            return (0.3 / math.sqrt(q * hi), hi)

        return _flipped_rho(spec, k_own, lam_req, window)

    separations = {("uv", 0): Shifted._uv, ("polar", 0): Shifted._polar,
                   ("parabolic", 0): _parabolic, ("parabolic", 1): _parabolic}

    def angular_factor(self, spec, chart, qn):
        if chart not in self.angles:
            return None
        return _model_factor(spec, sf.PT, {"alpha": abs(spec.c("k2")), "beta": abs(spec.c("k1"))},
                             qn.l, 0.5 if chart == "uv" else 1.0)

    def count(self, spec, qn):
        return 2.0 * qn.n + 2.0 * qn.l + abs(spec.c("k1")) + abs(spec.c("k2")) + 2.0


class DIII_V3(Shifted):
    """The complex c1^2 e^{-i phi} - 2 c2 e^{-2i phi} terms minus alpha; its
    polar angle is a complex Morse problem with a real spectrum."""

    couplings = ("alpha", "c1", "c2")
    nonzero = ("c1",)
    schemes = ("polar",)
    angles = {"polar": CIRCLE}

    def form(self, spec, chart):
        hq = potentials._quantum_unit(spec.space)
        al, c1, c2 = spec.c("alpha"), spec.c("c1"), spec.c("c2")
        q1, q2 = chart.q1, chart.q2
        if chart.name == "uv":
            cen = hq * np.exp(q1) * (c1 * c1 * np.exp(-1j * q2) - 2.0 * c2 * np.exp(-2j * q2))
            return -al + cen
        if chart.name == "polar":
            cen = 4.0 * hq / q1 ** 2 * (
                c1 * c1 * np.exp(-2j * q2) - 2.0 * c2 * np.exp(-4j * q2)
            )
            return -al + cen
        if chart.name == "hyperbolic":
            mu, nu = q1, q2
            cen = hq * (c1 * c1 / (mu * nu) - c2 * (mu - nu) / (mu * nu) ** 2)
            return -al + cen
        return super().form(spec, chart)

    def _cmorse(self, spec):
        """The couplings (C1, C2) of the complex-Morse family that solves the
        angular equation.  Requires c2 > 0 (else the effective index is complex)."""
        c1, c2 = spec.c("c1"), spec.c("c2")
        if c2 <= 0:
            raise ParamError("DIII_V3 separation implemented for c2 > 0")
        return math.sqrt(c2 / 2.0), c1 * c1 / 8.0

    def _polar_index(self, spec, l):
        """The angular index lambda(l)."""
        C1, C2 = self._cmorse(spec)
        ratio = 2.0 * C2 / C1  # = c1^2 / (2 sqrt(2 c2))
        return abs(2.0 * (ratio - int(l) - 0.5))

    def _angle(self, spec, partner, axis):
        """The polar angle phi: the complex Morse family in 2 phi.  It requires
        the index at which the radius solves at level ``partner``; at a root
        that is the angle's own index."""
        a, _, _, hb, hq = _units(spec)
        C1, C2 = self._cmorse(spec)

        def lam_req(E):
            idx = abs(a * E - self.shift(spec)) / (hb * _omega_of(spec, E)) - 2 * int(partner) - 1
            return hq * idx ** 2

        def profile(E):
            return lambda phi: 4.0 * hq * (
                spec.c("c1") ** 2 * np.exp(-2j * np.asarray(phi))
                - 2.0 * spec.c("c2") * np.exp(-4j * np.asarray(phi))
            )

        return potentials.Separated1D(
            profile, lam_req,
            factor=lambda E, n: _model_factor(spec, sf.CMORSE, {"c1": C1, "c2": C2}, n, 2.0),
            window=lambda E, n: (0.0, 2.0 * math.pi), domain=(0.0, 2.0 * math.pi))

    separations = {("polar", 0): Shifted._polar, ("polar", 1): _angle}

    def count(self, spec, qn):
        return 2.0 * qn.n + self._polar_index(spec, qn.l) + 1.0

    def decays(self, spec, qn, E):
        """The D_III rule, for an l on the angle's ladder: past it the
        angular index is the modulus of a negative one and no state exists."""
        C1, C2 = self._cmorse(spec)
        top = sf.model_max_index(sf.ModelFamily(sf.CMORSE, {"c1": C1, "c2": C2}))
        return qn.l <= top and super().decays(spec, qn, E)


class DIII_V4(DIIIFamily):
    """(d1 mu - d2 nu + m w^2 (mu^2 - nu^2)/2) over the hyperbolic conformal
    factor, separated in (x, y) = (ln mu, ln nu) into two Morse problems.

    Sign convention: the nu-coupling enters the separated pair as -d2 nu,
    the sign the Morse parameters of the separation require.
    """

    couplings = ("d1", "d2", "omega")
    schemes = ("hyperbolic",)

    def form(self, spec, chart):
        if chart.name != "hyperbolic":
            return super().form(spec, chart)
        m = spec.space.mass
        d1, d2, om = spec.c("d1"), spec.c("d2"), spec.c("omega")
        mu, nu = chart.q1, chart.q2
        return (d1 * mu - d2 * nu + 0.5 * m * om * om * (mu * mu - nu * nu)) / (mu + nu)

    def _w2(self, spec, E):
        """m w^2 - bE, which the Morse pair needs positive."""
        om = spec.c("omega")
        w2 = spec.space.mass * om * om - spec.space.b * E
        if w2 <= 0:
            raise DomainError("DIII_V4 requires E < m w^2 / b")
        return w2

    def _v0(self, spec, E):
        """The Morse parameter v0 = sqrt(m (m w^2 - bE)) / hbar."""
        return math.sqrt(spec.space.mass * self._w2(spec, E)) / spec.space.hbar

    def _index(self, spec, E, axis, n):
        """The Morse index s = a~ v0 - n - 1/2 of the axis' factor at level n."""
        a = spec.space.a
        num = (a * E - spec.c("d1")) if axis == 0 else -(a * E + spec.c("d2"))
        return num / self._w2(spec, E) * self._v0(spec, E) - n - 0.5

    def _hyperbolic(self, spec, partner, axis):
        a, b, m, _, hq = _units(spec)
        d1, d2, om = spec.c("d1"), spec.c("d2"), spec.c("omega")
        lin = (lambda E: d1 - a * E) if axis == 0 else (lambda E: d2 + a * E)
        return _morse_axis(1, lambda E: 0.5 * (m * om * om - b * E), lin,
                           lambda E: 2.0 * self._v0(spec, E),
                           lambda E, n: self._index(spec, E, axis, n),
                           lambda E: -hq * self._index(spec, E, 1 - axis, int(partner)) ** 2, 1)

    separations = {("hyperbolic", 0): _hyperbolic, ("hyperbolic", 1): _hyperbolic}

    def branches(self, spec, qn):
        # sum branch: m (d1+d2)^2 = hbar^2 (n+l+1)^2 (m w^2 - bE);
        # difference branch: m (2aE - d1 + d2)^2 = hbar^2 (n-l)^2 (m w^2 - bE)
        a, b, m, hb, _ = _units(spec)
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

    def unsquared_gap(self, spec, qn, E):
        a, _, m, hb, _ = _units(spec)
        d1, d2 = spec.c("d1"), spec.c("d2")
        den = hb * math.sqrt(self._w2(spec, E))
        # both sides are pure numbers; a unit scale keeps n = l (rhs 0) finite
        g1 = _gap_pair(-(d1 + d2) * math.sqrt(m) / den, qn.n + qn.l + 1.0, 1.0)
        g2 = _gap_pair((2.0 * a * E - d1 + d2) * math.sqrt(m) / den, float(qn.n - qn.l), 1.0)
        return min(g1, g2, key=min)

    def decays(self, spec, qn, E):
        """Both Morse factors bound at one index, s0(n) = s1(l) > 0: the
        principal sign of the difference branch.  Its flipped sign leaves
        s0 - s1 = 2(l - n), and the sum branch s0 + s1 <= 0."""
        try:
            s0, s1 = self._index(spec, E, 0, qn.n), self._index(spec, E, 1, qn.l)
        except DomainError:
            return False
        return s0 > 0 and s1 > 0 and _gap_pair(s0, s1, 1.0)[0] < 1e-7

    def dispersion(self, spec, p, aux):
        return potentials._quantum_unit(spec.space) * p * p


class DIII_V5(Shifted):
    """The constant hbar^2 v0^2/2m over the D_III factor, separated in the uv,
    polar, parabolic and hyperbolic charts; the angle carries a plane wave."""

    couplings = ("v0",)
    schemes = ("uv", "polar", "parabolic", "hyperbolic")
    angles = {"uv": CIRCLE, "polar": CIRCLE}

    def form(self, spec, chart):
        hq, v0 = potentials._quantum_unit(spec.space), spec.c("v0")
        return hq * v0 * v0  # the same numerator in every chart

    def shift(self, spec):
        return potentials._quantum_unit(spec.space) * spec.c("v0") ** 2

    def scale(self, qn):
        return 0.5 if qn.scheme == "hyperbolic" else 1.0

    def _uv_index(self, spec, partner):
        return abs(float(partner))

    def _polar_index(self, spec, partner):
        return abs(int(partner))

    def _parabolic(self, spec, partner, axis):
        """xi or eta: a flipped oscillator."""
        return _flipped_ho(spec, partner, 0.0, 0.0, self.shift(spec))

    def _hyperbolic(self, spec, partner, axis):
        """x = ln mu: a flipped factor on the growing-exponential side;
        y = ln nu: a genuine Morse well."""
        a, b, m, hb, hq = _units(spec)
        v0c, n_oth = spec.c("v0"), int(partner)
        sigma = -1 if axis == 0 else 1

        def ktilde(E):
            return (hq * v0c * v0c - a * E) * math.sqrt(-m / (E * b)) / hb

        return _morse_axis(1, lambda E: -0.5 * b * E, lambda E: -sigma * (hq * v0c * v0c - a * E),
                           lambda E: 2.0 * (math.sqrt(-m * E * b) / hb),
                           lambda E, n: ktilde(E) - n - 0.5,
                           lambda E: -hq * (ktilde(E) - n_oth - 0.5) ** 2, sigma)

    separations = {("uv", 0): Shifted._uv, ("polar", 0): Shifted._polar,
                   ("parabolic", 0): _parabolic, ("parabolic", 1): _parabolic,
                   ("hyperbolic", 0): _hyperbolic, ("hyperbolic", 1): _hyperbolic}

    def angular_factor(self, spec, chart, qn):
        if chart not in self.angles:
            return None
        return lambda v: np.exp(1j * qn.l * v)

    def count(self, spec, qn):
        if qn.scheme == "uv":
            return 2.0 * qn.n + 2.0 * qn.l + 1.0
        if qn.scheme == "polar":
            return 2.0 * qn.n + abs(qn.l) + 1.0
        return qn.n + qn.l + 1.0  # parabolic and hyperbolic countings

    def asymptotic(self, spec, qn, branch):
        """'plus' is the deep free-motion-like branch and 'minus' the shallow
        one, the labels of the closed form."""
        a, b, _, _, hq = _units(spec)
        v0 = spec.c("v0")
        M = self.count(spec, qn)
        s = self.scale(qn)
        if branch == "plus":
            return -hq * s * (b / (a * a)) * (M * M - 2.0 * a * v0 * v0 / (s * b))
        if branch == "minus":
            return -hq * v0 ** 4 / (s * b * M * M)
        raise ParamError(f"unknown branch {branch!r}")

    def constant(self, spec, name, state):
        """R1, R2, R3: the coupling corrections in parabolic variables added
        to X1, X2 and K."""
        from . import classical

        sp = spec.space
        if name == "R3":
            return classical.observable_value(sp, "K", state)
        if name not in ("R1", "R2"):
            return super().constant(spec, name, state)
        st = classical.transform_state(sp, state, "uv")
        par = classical.transform_state(sp, st, "parabolic")
        xi, eta = par.chart.q1, par.chart.q2
        hq = sp.hbar ** 2 / (2.0 * sp.mass)
        v0 = spec.c("v0")
        den = d3_factor(sp, par.chart)
        # coupling corrections fixed by the conservation requirement itself
        if name == "R1":
            return classical.observable_value(sp, "X1", st) + 0.125 * hq * v0 * v0 * (
                eta * eta - xi * xi
            ) / den
        return classical.observable_value(sp, "X2", st) + 0.25 * hq * v0 * v0 * xi * eta / den


# ----------------------------------------------------------------------
# D_IV
# ----------------------------------------------------------------------

class DIVFamily(Family):
    space = DIV


def _index_root(space, k2, apm, E):
    """The real index sqrt(k2 - 2 m a_pm E / hbar^2); DomainError if it is not."""
    sq = potentials.index_square(space, k2, apm, E)
    if sq < 0:
        raise DomainError(f"index root not real at E = {E!r}: its square is {sq:.6g}")
    return math.sqrt(sq)


def _a_minus(spec):
    """a_- = (a - 2b)/4, which the caller divides by; ParamError at a = 2b."""
    if spec.space.a_minus == 0:
        raise ParamError(f"{spec.family} divides by a_- = (a - 2b)/4, 0 at a = 2b = {spec.space.a}")
    return spec.space.a_minus


def _model_axis(spec, tag, params, lam_req, window):
    """An axis solved by the model family ``tag`` of ``specfun`` with the
    parameters params(E): the model's profile and eigenfunctions on its
    natural interval, sampled on the fixed ``window``."""

    def profile(E):
        return sf.model_potential(
            sf.ModelFamily(tag, params(E), hbar=spec.space.hbar, mass=spec.space.mass))

    return potentials.Separated1D(profile, lam_req,
                                  lambda E, n: _model_factor(spec, tag, params(E), n),
                                  lambda E, n: window, sf.model_domain(tag))


def _pt_axis(spec, indices, lam_req, window):
    """A Poeschl-Teller axis whose indices (alpha, beta) = indices(E) sit at
    its sin and its cos wall."""
    return _model_axis(spec, sf.PT, lambda E: dict(zip(("alpha", "beta"), indices(E))),
                       lam_req, window)


def _mpt_axis(spec, partner, indices, pt_indices, window):
    """A bound modified Poeschl-Teller axis whose indices (eta, nu) =
    indices(E) sit at its sinh and its cosh wall; its partner is the
    Poeschl-Teller axis at level ``partner`` with indices pt_indices(E)."""
    hq, n_oth = potentials._quantum_unit(spec.space), int(partner)

    def lam_req(E):
        a, b = pt_indices(E)
        return -hq * (2.0 * n_oth + a + b + 1.0) ** 2

    return _model_axis(spec, sf.MPT_BOUND, lambda E: dict(zip(("eta", "nu"), indices(E))),
                       lam_req, window)


class DIV_V1(DIVFamily):
    """Centrifugal k1, k2 terms, minus alpha, plus an oscillator in omega:
    Poeschl-Teller times Morse in (u, v), two radial oscillators in the
    horospherical chart.  The potential holds omega only as omega^2, so the
    separations and the count read |omega|."""

    couplings = ("alpha", "k1", "k2", "omega")
    nonzero = ("omega",)
    schemes = ("uv", "horospherical")

    def form(self, spec, chart):
        _, _, m, _, hq = _units(spec)
        al, k1, k2, om = spec.c("alpha"), spec.c("k1"), spec.c("k2"), spec.c("omega")
        q1, q2 = chart.q1, chart.q2
        if chart.name == "uv":
            return (
                hq * ((k1 * k1 - 0.25) / np.cos(q1) ** 2 + (k2 * k2 - 0.25) / np.sin(q1) ** 2)
                - 4.0 * al * np.exp(2.0 * q2)
                + 8.0 * m * om * om * np.exp(4.0 * q2)
            )
        if chart.name in ("horospherical", "elliptic"):
            return (
                -al
                + hq * ((k1 * k1 - 0.25) / q1 ** 2 + (k2 * k2 - 0.25) / q2 ** 2)
                + 0.5 * m * om * om * (q1 * q1 + q2 * q2)
            )
        return super().form(spec, chart)

    def indices(self, spec, E: float):
        """lambda_1 = sqrt(k1^2 - 2 m a_- E / hbar^2), lambda_2 with k2 and a_+."""
        sp = spec.space
        return (_index_root(sp, spec.c("k1") ** 2, sp.a_minus, E),
                _index_root(sp, spec.c("k2") ** 2, sp.a_plus, E))

    def _v_index(self, spec, l: int) -> float:
        """The Morse index alpha/(2 hbar |w|) - l - 1/2 of the v problem at level l."""
        return spec.c("alpha") / (2.0 * spec.space.hbar * abs(spec.c("omega"))) - l - 0.5

    def _uv(self, spec, partner, axis):
        _, _, m, hb, hq = _units(spec)
        al, om = spec.c("alpha"), abs(spec.c("omega"))
        n_oth = int(partner)
        if axis == 0:
            def lam_req(E):
                # minus the Morse level of the v problem (doubled-variable convention)
                s = self._v_index(spec, n_oth)
                return 2.0 * hb ** 2 / m * s * s

            return _pt_axis(spec, lambda E: self.indices(spec, E)[::-1], lam_req,
                            (0.15, math.pi / 2.0 - 0.15))
        # v, in the doubled variable x = 2v: a Morse well of mass m/4
        morse = sf.ModelFamily(
            sf.MORSE_BOUND,
            {"v0": 2.0 * m * om / hb, "alpha_t": al / (4.0 * m * om * om)},
            hbar=hb,
            mass=m / 4.0,
        )

        def profile(E):
            return lambda v: 8.0 * m * om * om * np.exp(4.0 * np.asarray(v)) - 4.0 * al * np.exp(
                2.0 * np.asarray(v)
            )

        def lam_req(E):
            l1, l2 = self.indices(spec, E)
            return -hq * (2.0 * n_oth + l1 + l2 + 1.0) ** 2

        def factor(E, n):
            return lambda v: sf.model_eigenfunction(morse, int(n), 2.0 * np.asarray(v))

        def window(E, n):
            v0m = morse.params["v0"]
            return (0.5 * math.log(0.05 / (2.0 * v0m)), 0.5 * math.log(25.0 / (2.0 * v0m)))

        return potentials.Separated1D(profile, lam_req, factor, window, (-math.inf, math.inf))

    def _horospherical(self, spec, partner, axis):
        """mu or nu > 0: a radial oscillator."""
        _, _, m, hb, _ = _units(spec)
        al, om = spec.c("alpha"), abs(spec.c("omega"))
        n_oth, q = int(partner), m * om / hb

        def lam_req(E):
            return al - hb * om * (2.0 * n_oth + self.indices(spec, E)[1 - axis] + 1.0)

        return _model_axis(spec, sf.RHO,
                           lambda E: {"omega": om, "lam": self.indices(spec, E)[axis]},
                           lam_req, (0.25 / math.sqrt(q), math.sqrt(30.0 / q)))

    separations = {("uv", 0): _uv, ("uv", 1): _uv,
                   ("horospherical", 0): _horospherical, ("horospherical", 1): _horospherical}

    def count(self, spec, qn):
        return spec.c("alpha") / (spec.space.hbar * abs(spec.c("omega"))) - 2.0 * (qn.n + qn.l + 1.0)

    def branches(self, spec, qn):
        a, b, _, _, hq = _units(spec)
        sp = spec.space
        k1, k2 = spec.c("k1"), spec.c("k2")
        S = self.count(spec, qn)
        N = S * S - (k1 * k1 + k2 * k2)
        Ka = 4.0 * (sp.a_plus * k1 * k1 + sp.a_minus * k2 * k2)
        return [(b * b, hq * (a * N + Ka), hq * hq * (N * N - 4.0 * k1 * k1 * k2 * k2))]

    def unsquared_gap(self, spec, qn, E):
        l1, l2 = self.indices(spec, E)
        return _gap_pair(self.count(spec, qn), l1 + l2)

    def decays(self, spec, qn, E):
        try:
            self.indices(spec, E)
        except DomainError:
            return False
        return self.count(spec, qn) > 0 and self._v_index(spec, qn.l) > 0

    def dispersion(self, spec, p, aux):
        sp = spec.space
        return potentials._quantum_unit(sp) / sp.a_plus * (p * p + spec.c("k2") ** 2)


class DIV_V2(DIVFamily):
    """Centrifugal k1, k2, k3 terms: Poeschl-Teller times a bound modified
    Poeschl-Teller in (u, v); its degelliptic2 states are the (u, v) states
    pulled back."""

    couplings = ("k1", "k2", "k3")
    centrifugal = "k3"  # the coupling of the dispersion
    schemes = ("uv", "degelliptic2")
    pullbacks = {"degelliptic2": ((0.35, 1.6), (0.25, math.pi / 4.0 - 0.12))}

    def form(self, spec, chart):
        if chart.name != "uv":
            return super().form(spec, chart)
        k1, k2, k3 = spec.c("k1"), spec.c("k2"), spec.c("k3")
        u, v = chart.q1, chart.q2
        return potentials._quantum_unit(spec.space) * (
            (k1 * k1 - 0.25) / np.sinh(v) ** 2
            - (k2 * k2 - 0.25) / np.cosh(v) ** 2
            + (k3 * k3 - 0.25) * (1.0 / np.sin(u) ** 2 + 1.0 / np.cos(u) ** 2)
        )

    def indices(self, spec, E: float):
        """lambda_pm = sqrt(k3^2 - 2 m a_pm E / hbar^2)."""
        sp = spec.space
        k3 = spec.c("k3")
        return _index_root(sp, k3 * k3, sp.a_plus, E), _index_root(sp, k3 * k3, sp.a_minus, E)

    def _uv(self, spec, partner, axis):
        k1, k2 = abs(spec.c("k1")), abs(spec.c("k2"))
        if axis == 1:
            return _mpt_axis(spec, partner, lambda E: (k1, k2), lambda E: self.indices(spec, E),
                             (0.8, 6.5))
        mpt_v = sf.ModelFamily(sf.MPT_BOUND, {"eta": k1, "nu": k2},
                               hbar=spec.space.hbar, mass=spec.space.mass)
        return _pt_axis(spec, lambda E: self.indices(spec, E),
                        lambda E: -sf.model_eigenvalue(mpt_v, int(partner)),
                        (0.15, math.pi / 2.0 - 0.15))

    separations = {("uv", 0): _uv, ("uv", 1): _uv}

    def count(self, spec, qn):
        return abs(spec.c("k2")) - abs(spec.c("k1")) - 2.0 * (qn.n + qn.l) - 2.0

    def branches(self, spec, qn):
        a, b, m, hb, _ = _units(spec)
        S2 = self.count(spec, qn)
        k3 = spec.c("k3")
        return [(
            4.0 * m * m * b * b / hb ** 4,
            2.0 * m * a * S2 * S2 / hb ** 2,
            S2 * S2 * (S2 * S2 - 4.0 * k3 * k3),
        )]

    unsquared_gap = DIV_V1.unsquared_gap  # count = lambda_+ + lambda_-

    def decays(self, spec, qn, E):
        k1, k2 = abs(spec.c("k1")), abs(spec.c("k2"))
        if qn.l > (k2 - k1 - 1.0) / 2.0 - 1e-12:
            return False
        try:
            self.indices(spec, E)
        except DomainError:
            return False
        return self.count(spec, qn) > 0

    def dispersion(self, spec, p, aux):
        sp = spec.space
        apm = _a_minus(spec) if aux == "degelliptic" else sp.a_plus
        return potentials._quantum_unit(sp) / apm * (p * p + spec.c(self.centrifugal) ** 2)


class DIV_V3(DIVFamily):
    """The c1, c2, c3 terms of the degenerate elliptic charts: Poeschl-Teller
    times a bound modified Poeschl-Teller in degelliptic2, quantized by one
    transcendental condition in the four index roots of
    ``potentials.div3_indices``.  It is never squared, so ``spectra`` finds its
    roots by a bracket scan and each root carries unsquared sign +1."""

    couplings = ("c1", "c2", "c3")
    schemes = ("degelliptic2",)
    transcendental = True

    def form(self, spec, chart):
        hq = potentials._quantum_unit(spec.space)
        c1, c2, c3 = spec.c("c1"), spec.c("c2"), spec.c("c3")
        q1, q2 = chart.q1, chart.q2
        if chart.name == "degelliptic2":
            return hq * (
                c1 / np.cos(q2) ** 2
                + c2 / np.cosh(q1) ** 2
                + c3 * (1.0 / np.sin(q2) ** 2 - 1.0 / np.sinh(q1) ** 2)
            )
        if chart.name == "degelliptic1":
            return hq * (
                c3 / np.sinh(q1) ** 2
                + c2 / np.cosh(q1) ** 2
                + c3 * (1.0 / np.sin(q2) ** 2 - 1.0 / np.cos(q2) ** 2)
            )
        return super().form(spec, chart)

    def _degelliptic2(self, spec, partner, axis):
        def pair(*keys):
            return lambda E: itemgetter(*keys)(potentials.div3_indices(spec, E))

        if axis == 0:
            return _mpt_axis(spec, partner, pair("3p", "2p"), pair("3m", "1m"), (0.3, 10.0))
        hq = potentials._quantum_unit(spec.space)
        n_oth = int(partner)

        def lam_req(E):
            lam = potentials.div3_indices(spec, E)
            return hq * (lam["2p"] - lam["3p"] - 2.0 * n_oth - 1.0) ** 2

        return _pt_axis(spec, pair("3m", "1m"), lam_req, (0.12, math.pi / 4.0 - 0.02))

    separations = {("degelliptic2", 0): _degelliptic2, ("degelliptic2", 1): _degelliptic2}

    def gap(self, spec, qn, E):
        """The condition lam_2+ - lam_3+ - lam_3- - lam_1- - 2(n + l) - 2, on
        which both separations close (their lam_req pair reads these four
        indices); NaN where an index is complex.  E may be an array of energies."""
        lam = potentials.div3_indices(spec, E)
        nl = 2.0 * (qn.n + qn.l)
        return lam["2p"] - lam["3p"] - lam["3m"] - lam["1m"] - nl - 2.0

    def scan_window(self, spec, qn):
        """The energies (E_lo, E_hi) scanned for roots of ``gap``: below 0 and
        below the energy where one of its indices turns complex."""
        sp = spec.space
        hb2, am = sp.hbar ** 2, _a_minus(spec)

        def top_of(name):
            ci = spec.c(f"c{name[0]}")
            if name[1] == "p":
                return (0.25 - ci) * hb2 / (2.0 * sp.mass * sp.a_plus)
            return (0.25 + ci) * hb2 / (2.0 * sp.mass * am)

        scale = hb2 / (2.0 * sp.mass * sp.a_plus)
        e_hi = min(0.0, min(top_of(nm) for nm in ("2p", "3p", "3m", "1m"))) - 1e-12
        return e_hi - 400.0 * scale * (1.0 + qn.n + qn.l) ** 2, e_hi

    def unsquared_gap(self, spec, qn, E):
        g = abs(self.gap(spec, qn, E))
        if math.isnan(g):
            raise DomainError(f"a DIV_V3 index root is complex at E = {E!r}")
        return g / (1.0 + g), 1.0

    def decays(self, spec, qn, E):
        lam = potentials.div3_indices(spec, E)
        if any(math.isnan(v) for v in lam.values()):
            return False
        return lam["2p"] - lam["3p"] - 2.0 * qn.l - 1.0 > 0

    def dispersion(self, spec, p, aux):
        sp = spec.space
        return potentials._quantum_unit(sp) / _a_minus(spec) * (p * p + 0.25 - spec.c("c3"))


class DIV_V4(DIVFamily):
    """The centrifugal k0 term: a continuous spectrum only."""

    couplings = ("k0",)
    centrifugal = "k0"
    dispersion = DIV_V2.dispersion

    def form(self, spec, chart):
        k0 = spec.c("k0")
        hq = potentials._quantum_unit(spec.space)
        q1, q2 = chart.q1, chart.q2
        if chart.name == "uv":
            return hq * (k0 * k0 - 0.25) * (1.0 / np.sin(q1) ** 2 + 1.0 / np.cos(q1) ** 2)
        if chart.name in ("horospherical", "elliptic"):
            return hq * (k0 * k0 - 0.25) * (1.0 / q1 ** 2 + 1.0 / q2 ** 2)
        return super().form(spec, chart)

    def constant(self, spec, name, state):
        """R3 = mu p_mu + nu p_nu."""
        from . import classical

        if name != "R3":
            return super().constant(spec, name, state)
        st = classical.transform_state(spec.space, state, "horospherical")
        return st.chart.q1 * st.p1 + st.chart.q2 * st.p2


FAMILIES = {rec.name: rec for rec in (DIII_V1(), DIII_V2(), DIII_V3(), DIII_V4(), DIII_V5(),
                                      DIV_V1(), DIV_V2(), DIV_V3(), DIV_V4())}
