"""One record per superintegrable potential family on D_III and D_IV.

Five families live on D_III (V1..V5) and four on D_IV (V1..V4), after
Kalnins, Kress, Miller and Winternitz, J. Math. Phys. 44, 5811 (2003).  A
record holds everything specific to its family: its couplings, its closed
form, written once in one real chart (and in the continued sections that no
real map reaches), its separations keyed by chart with their windows and
natural intervals, the charts its states are counted and assembled in, its
squared quantization condition with the unsquared gap and decay rule that
judge the roots, its continuous dispersion and asymptotic pair, and its extra
constants of motion.
``FAMILIES`` maps each family name to its record.

Energy enters the separated 1D profiles as an effective coupling: on D_III
through the frequency w(E) = sqrt(-bE/2m), on D_IV through index shifts like
lambda^2 = k^2 - 2 m a_pm E / hbar^2.  A separation maps a state to its two
axes, axis 0 carrying n and axis 1 carrying l; ``_model_pair`` builds both
from two ``specfun.MODELS`` rows.  Each axis takes its row's profile, factor
and natural interval (the model's domain over the row's scale, unless the row
states its own) and requires a shared level minus the other row's level at
the other quantum number (in the signed hyperbolic chart, that level itself),
so a quantum number past that row's ladder raises LevelError.  The rows are,
on D_III, the oscillators, rows at -w(E), the Morse log-axes, unladdered Morse
rows (uv of V2 and V5 at a negative depth, hyperbolic of V4 and V5), and the
angle rows: DIII_V2's Poeschl-Teller rows in v/2 and phi, DIII_V3's complex
Morse row in 2 phi on the circle (0, 2 pi), and DIII_V5's plane-wave row.  The
uv axis, the polar radius and each angle have no partner row: each carries the
other quantum number in its level.  A row's window reads E only, so a grid is
laid out without building a factor.
What the families share stays in its module: the division by the D_III
factor or the D_IV conformal factor in ``potentials``, root finding and
admissibility in ``spectra``, grid assembly in ``wavefun``.  Records call the
public functions of those modules through the module, at call time.  DIV_V3
has one level per (n, l) exactly when its gap, increasing in E where c3 >= c2
and below -2 where c3 < c2, is positive at the top of its window.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from operator import itemgetter

import numpy as np

from .errors import DomainError, LevelError, ParamError, UnsupportedChartError, UnsupportedError
from .geometry import DIII, DIV, d3_factor
from . import potentials, specfun as sf

# A root satisfies the unsquared condition where its normalized gap is below this
GAP_TOL = 1e-7
_CIRCLE_WINDOW = (0.05, 2.0 * math.pi - 0.05)  # an angle on the circle, less 0.05 at each end


def _gap_pair(lhs, rhs, floor=1e-300):
    """(|lhs - rhs|, |lhs + rhs|) normalized by the larger side, or by
    ``floor`` if that is larger."""
    sc = max(abs(lhs), abs(rhs), floor)
    return (abs(lhs - rhs) / sc, abs(lhs + rhs) / sc)


def _units(spec):
    """(a, b, mass, hbar, hbar^2/2m) of the spec's space."""
    sp = spec.space
    return sp.a, sp.b, sp.mass, sp.hbar, potentials._quantum_unit(sp)


# A ``specfun.MODELS`` row of a separation: tag, params(E) in key order, sampling window
# (fixed, or window(E)), scale s and origin x0(E) (None: 0; whole-line rows only) of its
# variable s (x - x0), solved at mass m / s^2, and domain (None: the model's over s).
Row = namedtuple("Row", "tag params window s x0 domain", defaults=(1.0, None, None))


def _model_pair(spec, rows, qn, shift=lambda E: 0.0, signed=False):
    """The axes (0 carrying qn.n, 1 carrying qn.l) of a separation into the
    rows ``rows``; a row that is None gives no axis.  An axis takes its row's
    profile, factor and domain; it requires shift(E) minus its partner row's
    level at the other quantum number (the two levels sum to shift(E)), or,
    in a ``signed`` chart, where the two levels agree, that level itself.  A
    partner past its row's ladder raises LevelError, and one that is no row
    (None) has level 0."""
    hb, m = spec.space.hbar, spec.space.mass

    def model(row, E):
        return sf.ModelFamily(row.tag, dict(zip(sf.MODELS[row.tag].keys, row.params(E))),
                              hbar=hb, mass=m / (row.s * row.s))

    def axis(row, own, other, partner):
        def var(E):  # x -> s (x - x0(E)), the row's variable
            x0 = 0.0 if row.x0 is None else row.x0(E)
            return lambda x: row.s * (np.asarray(x) - x0)

        def profile(E):
            U, to = sf.model_potential(model(row, E)), var(E)
            return lambda x: U(to(x))

        def factor(E):
            fam, to = model(row, E), var(E)
            return lambda x: sf.model_eigenfunction(fam, own, to(x))

        def lam_req(E):
            lev = 0.0 if other is None else sf.model_eigenvalue(model(other, E), partner)
            return lev if signed else shift(E) - lev

        window = row.window if callable(row.window) else lambda E: row.window
        domain = row.domain or tuple(sorted(d / row.s for d in sf.model_domain(row.tag)))
        return potentials.Separated1D(profile, lam_req, factor, window, domain)

    (r0, r1), (n, l) = rows, (qn.n, qn.l)
    return (None if r0 is None else axis(r0, n, r1, l),
            None if r1 is None else axis(r1, l, r0, n))


class Family:
    """A potential family.  Records hold no state (every method takes the
    PotentialSpec), and the defaults say that a family lacks an operation."""

    space = DIII
    couplings: tuple = ()
    nonzero: tuple = ()      # couplings that must not vanish
    forms: tuple = ()        # the real chart of its form, then continued sections
    pullbacks: dict = {}     # assembly chart -> default grid spans of the pulled-back (u, v) state
    separations: dict = {}   # chart -> its separated problems (axis 0, axis 1)
    transcendental = False   # quantized by the one root of an unsquared gap, not by polynomial roots
    signed_l: tuple = ()     # schemes whose l is a signed momentum, not a ladder level

    @property
    def name(self):
        return type(self).__name__

    @functools.cached_property
    def schemes(self):
        """The charts its states are counted and assembled in: the separated
        charts, in order, then the pulled-back ones."""
        return tuple(dict.fromkeys([*self.separations, *self.pullbacks]))

    def check(self, qn, chart=None):
        """Are qn a state's labels (in ``chart``, if given)?  ParamError for qn
        counted in a scheme other than ``chart`` (unless states are pulled back
        to it), UnsupportedError for a family with no schemes, ParamError for a
        scheme it is not counted in, and LevelError for an l < 0 in a scheme
        where l numbers a ladder level."""
        if chart is not None and qn.scheme != chart and chart not in self.pullbacks:
            raise ParamError(f"quantum numbers counted in scheme {qn.scheme!r} "
                             f"do not label states in chart {chart!r}")
        if not self.schemes:
            raise UnsupportedError(f"{self.name} has no discrete quantization")
        if qn.scheme not in self.schemes:
            raise ParamError(f"{self.name} does not separate in scheme {qn.scheme!r}")
        if qn.l < 0 and qn.scheme not in self.signed_l:
            raise LevelError(f"{self.name} numbers a ladder level by l in scheme "
                             f"{qn.scheme!r}, got {qn.l}")

    def form(self, spec, chart):
        """The numerator of the potential at points of a chart in ``forms``:
        over the D_III factor ``geometry.d3_factor`` on D_III, over the chart's
        conformal factor on D_IV.  ``potentials`` reaches every other real
        chart through the chart maps to and from (u, v)."""
        raise UnsupportedChartError(f"{self.name} has no closed form")

    def separation(self, spec, chart, qn):
        """The separated 1D problems of a chart's two axes (see ``separated_problem``)."""
        sep = self.separations.get(chart)
        if sep is None:
            raise UnsupportedChartError(f"{self.name} is not separated in chart {chart!r}")
        return sep(self, spec, qn)

    def count(self, spec, qn):
        """The composite quantum number entering the squared condition."""
        raise UnsupportedError(f"no composite count for {self.name}")

    def branches(self, spec, qn):
        """Coefficient tuples (highest power of E first) of every branch of the
        squared quantization condition."""
        raise UnsupportedError(f"{self.name} has no polynomial quantization condition")

    def unsquared_gap(self, spec, qn, E):
        """(gap with the record's first sign, gap with it flipped) of the unsquared
        condition, both normalized; ``spectra`` records a root closing the first
        as sign +1, which need not be the closed form's sign (see ``DIIIFamily``).
        DomainError when a square root goes complex.  A condition never squared
        has no sign to flip: its second slot is 1.0."""
        raise UnsupportedError(self.name)

    def decays(self, spec, qn, E):
        """Does its decay rule hold at a root?  ``spectra`` asks only where the
        root's square roots are real, so the default True adds no condition."""
        return True

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


def _ho_row(spec, k):
    """A Cartesian axis of D_III with linear term k x: the HO row at -w(E) about -k/(m w^2)."""
    m, hb = spec.space.mass, spec.space.hbar

    def x0(E):
        w = _omega_of(spec, E)
        return -k / (m * w * w)

    def window(E):
        c, half = x0(E), math.sqrt(18.0 * hb / (m * _omega_of(spec, E)))
        return (c - half, c + half)

    return Row(sf.HO, lambda E: (-_omega_of(spec, E),), window, x0=x0)


def _rho_row(spec, lam, window):
    """A radial axis of D_III: the RHO row at -w(E) of index lam, sampled on window(m w/hbar)."""
    m, hb = spec.space.mass, spec.space.hbar
    return Row(sf.RHO, lambda E: (-_omega_of(spec, E), lam),
               lambda E: window(m * _omega_of(spec, E) / hb))


def _morse_row(v0, at, k):
    """A log-axis of D_III: the Morse row of depth v0(E) and shape at(E) in k x,
    sampled where 0.05 < z = 2 |v0(E)| e^{kx} < 12."""

    def window(E):
        c = 2.0 * abs(v0(E))
        lo, hi = (c / 12.0, c / 0.05) if k < 0 else (0.05 / c, 12.0 / c)
        return (math.log(lo), math.log(hi))

    return Row(sf.MORSE, lambda E: (v0(E), at(E)), window, s=k)


class DIIIFamily(Family):
    """A D_III family.  All but V4 are quantized by level_sum(E) = -s hbar w M,
    the level their two axes share, and need no decay rule beyond a real w(E).
    Their gap's first sign is +sqrt(s) hbar w M, so those roots read sign -1."""

    def scale(self, qn):
        """The s of the condition."""
        return 1.0

    def unsquared_gap(self, spec, qn, E):
        w = _omega_of(spec, E)
        M = self.count(spec, qn)
        return _gap_pair(self.level_sum(spec, E),
                         math.sqrt(self.scale(qn)) * spec.space.hbar * w * M)


class DIII_V1(DIIIFamily):
    """(k1 xi + k2 eta + k3) / (a + b (xi^2 + eta^2)/4), separated in the
    parabolic chart; its squared condition is a quartic in E."""

    couplings = ("k1", "k2", "k3")
    forms = ("parabolic",)

    def form(self, spec, chart):
        return spec.c("k1") * chart.q1 + spec.c("k2") * chart.q2 + spec.c("k3")

    def level_sum(self, spec, E):
        """a E - k3 + (k1^2 + k2^2)/(2 m w^2)."""
        c, m, w = spec.c("k1") ** 2 + spec.c("k2") ** 2, spec.space.mass, _omega_of(spec, E)
        return spec.space.a * E - spec.c("k3") + c / (2.0 * m * w * w)

    def _parabolic(self, spec, qn):
        """xi and eta: oscillators at -w(E) centred at -k_i/(m w^2) (V5's k_i are 0)."""
        return _model_pair(spec, [_ho_row(spec, spec.c("k1")), _ho_row(spec, spec.c("k2"))],
                           qn, functools.partial(self.level_sum, spec))

    separations = {"parabolic": _parabolic}

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


class Shifted(DIIIFamily):
    """V2, V3 and V5 of D_III, quantized by a E - c = -s hbar w M with the
    energy shift c of ``shift``, the constant of the numerator, and a
    composite count M; ``deep`` labels the deep root of the large-M pair.  A
    uv or polar state is a radius times the chart's row in ``angle_rows``.

    Sign convention: alpha is attractive, and it enters the condition as
    a E + alpha = -hbar w N.
    """

    deep = "minus"
    angle_rows: dict = {}  # chart -> row(self, spec) of its angle

    def shift(self, spec):
        """The energy shift c: -alpha for V2 and V3."""
        return -spec.c("alpha")

    def level_sum(self, spec, E):
        return spec.space.a * E - self.shift(spec)

    def _with_angle(self, spec, qn, chart, per, row, shift):
        """(radius, angle): the radius ``row``, requiring shift(E), and the chart's
        angle row, requiring the index at which the radius solves at level n, at
        a root its own: (M - 2n - 1)/per, M = |level_sum(E)|/(hbar w(E))."""
        radius, make = _model_pair(spec, (row, None), qn, shift)[0], self.angle_rows[chart]
        _, _, _, hb, hq = _units(spec)

        def lam_req(E):
            M = abs(self.level_sum(spec, E)) / (hb * _omega_of(spec, E))
            return hq * ((M - 2 * qn.n - 1) / per) ** 2

        return radius, _model_pair(spec, (None, make(self, spec)), qn, lam_req)[1]

    def _uv(self, spec, qn):
        """u of the (u, v) chart, the Morse row at a negative depth in -u whose
        level carries the angle's level l, and the angle (per = 2)."""
        _, b, m, hb, hq = _units(spec)
        mu_idx = self._uv_index(spec, qn.l)
        row = _morse_row(lambda E: -0.5 * (math.sqrt(-8.0 * m * b * E) / hb),
                         lambda E: -self.level_sum(spec, E) / (2.0 * b * E), -1)
        return self._with_angle(spec, qn, "uv", 2, row, lambda E: -hq * mu_idx ** 2)

    def _polar(self, spec, qn):
        """The polar radius, a radial oscillator at -w(E) whose index carries
        the angle's level l, and the angle (per = 1)."""
        lam = self._polar_index(spec, qn.l)
        row = _rho_row(spec, lam, lambda q: (0.35 / math.sqrt(q) / math.sqrt(lam + 1.0),
                                             math.sqrt(28.0 / q)))
        return self._with_angle(spec, qn, "polar", 1, row, functools.partial(self.level_sum, spec))

    def branches(self, spec, qn):
        # (a E - c)^2 = -s hbar^2 M^2 b E / (2m)
        a, b, m, hb, _ = _units(spec)
        c = self.shift(spec)
        M = self.count(spec, qn)
        B = self.scale(qn) * hb ** 2 * M * M * b / (2.0 * m)
        return [(a ** 2, B - 2.0 * a * c, c * c)]

    def asymptotic(self, spec, qn, branch):
        """The ``deep`` root -s b hbar^2 M^2/(2 m a^2) + 2c/a of the large-M
        pair, or the shallow root -2 m c^2/(s b hbar^2 M^2) of the other label."""
        a, b, m, hb, _ = _units(spec)
        c, M, s = self.shift(spec), self.count(spec, qn), self.scale(qn)
        if branch == self.deep:
            return -s * b * hb * hb * M * M / (2.0 * m * a * a) + 2.0 * c / a
        if branch in ("minus", "plus"):
            return -2.0 * m * c * c / (s * b * hb * hb * M * M)
        raise ParamError(f"unknown branch {branch!r}")


class DIII_V2(Shifted):
    """Centrifugal terms (k1^2 - 1/4)/xi^2 and (k2^2 - 1/4)/eta^2 minus alpha,
    over the D_III factor; the angle of the uv and polar charts carries a
    Poeschl-Teller factor."""

    couplings = ("alpha", "k1", "k2")
    # in (u, v) the singular line xi = 0 is v = pi, where cos(v/2) is not 0
    forms = ("parabolic",)

    def form(self, spec, chart):
        hq, k1, k2 = potentials._quantum_unit(spec.space), spec.c("k1"), spec.c("k2")
        return self.shift(spec) + hq * ((k1 * k1 - 0.25) / chart.q1 ** 2
                                        + (k2 * k2 - 0.25) / chart.q2 ** 2)

    def _uv_index(self, spec, l):
        return 0.5 * (2.0 * l + 1.0 + abs(spec.c("k1")) + abs(spec.c("k2")))

    def _polar_index(self, spec, l):
        return 2.0 * l + abs(spec.c("k1")) + abs(spec.c("k2")) + 1.0

    def _parabolic(self, spec, qn):
        """xi and eta > 0: radial oscillators at -w(E) with the indices |k1|, |k2|."""
        rows = [_rho_row(spec, abs(spec.c(k)), lambda q: (
            0.3 / math.sqrt(q * math.sqrt(18.0 / q)), math.sqrt(18.0 / q))) for k in ("k1", "k2")]
        return _model_pair(spec, rows, qn, functools.partial(self.level_sum, spec))

    separations = {"uv": Shifted._uv, "polar": Shifted._polar, "parabolic": _parabolic}

    def _pt_row(self, spec, length, pad):
        """The Poeschl-Teller row with indices (|k2|, |k1|) on the angle (0, length), v
        in uv and phi in polar, sampled on it less ``pad`` at each end."""
        k = (abs(spec.c("k2")), abs(spec.c("k1")))
        return Row(sf.PT, lambda E: k, (pad, length - pad), s=0.5 * math.pi / length)

    angle_rows = {"uv": lambda self, spec: self._pt_row(spec, math.pi, 0.1),
                  "polar": lambda self, spec: self._pt_row(spec, math.pi / 2.0, 0.05)}

    def count(self, spec, qn):
        return 2.0 * qn.n + 2.0 * qn.l + abs(spec.c("k1")) + abs(spec.c("k2")) + 2.0


class DIII_V3(Shifted):
    """The complex c1^2 e^{-i phi} - 2 c2 e^{-2i phi} terms minus alpha; its
    polar angle is a complex Morse problem with a real spectrum."""

    couplings = ("alpha", "c1", "c2")
    nonzero = ("c1",)
    forms = ("uv", "hyperbolic")

    def form(self, spec, chart):
        hq, c1, c2 = potentials._quantum_unit(spec.space), spec.c("c1"), spec.c("c2")
        c, q1, q2 = self.shift(spec), chart.q1, chart.q2
        if chart.name == "hyperbolic":
            return c + hq * (c1 * c1 / (q1 * q2) - c2 * (q1 - q2) / (q1 * q2) ** 2)
        return c + hq * np.exp(q1) * (c1 * c1 * np.exp(-1j * q2) - 2.0 * c2 * np.exp(-2j * q2))

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
        return abs(2.0 * (ratio - l - 0.5))

    # the polar angle on the circle, the complex Morse row in 2 phi: over pi, one period
    # of its profile, its factor gains e^{-2 pi i mu}, so it is not single-valued there
    angle_rows = {"polar": lambda self, spec: Row(sf.CMORSE, lambda E, C=self._cmorse(spec): C,
                                                  _CIRCLE_WINDOW, 2.0, domain=(0.0, 2.0 * math.pi))}
    separations = {"polar": Shifted._polar}

    def count(self, spec, qn):
        return 2.0 * qn.n + self._polar_index(spec, qn.l) + 1.0

    def decays(self, spec, qn, E):
        """An l on the angle's ladder: past it the angular index is the
        modulus of a negative one and no state exists."""
        C1, C2 = self._cmorse(spec)
        return qn.l <= sf.model_max_index(sf.ModelFamily(sf.CMORSE, {"c1": C1, "c2": C2}))


class DIII_V4(DIIIFamily):
    """(d1 mu - d2 nu + m w^2 (mu^2 - nu^2)/2) over the hyperbolic conformal
    factor, separated in (x, y) = (ln mu, ln nu) into two Morse problems.

    Sign convention: the nu-coupling enters the separated pair as -d2 nu,
    the sign the Morse parameters of the separation require.
    """

    couplings = ("d1", "d2", "omega")
    forms = ("hyperbolic",)

    def form(self, spec, chart):
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

    def _shape(self, spec, E, axis):
        """The Morse shape a~ of the axis, whose index at level n is a~ v0 - n - 1/2."""
        a = spec.space.a
        num = (a * E - spec.c("d1")) if axis == 0 else -(a * E + spec.c("d2"))
        return num / self._w2(spec, E)

    def _hyperbolic(self, spec, qn):
        """x = ln mu and y = ln nu: Morse rows of depth v0 at one level."""
        rows = [_morse_row(functools.partial(self._v0, spec),
                           functools.partial(self._shape, spec, axis=ax), 1) for ax in (0, 1)]
        return _model_pair(spec, rows, qn, signed=True)

    separations = {"hyperbolic": _hyperbolic}

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

    def _gaps(self, spec, qn, E):
        """The gap pairs of the sum branch and of the difference branch, whose
        principal-sign gap is s0(n) - s1(l) over a scale."""
        a, _, m, hb, _ = _units(spec)
        d1, d2 = spec.c("d1"), spec.c("d2")
        den = hb * math.sqrt(self._w2(spec, E))
        # both sides are pure numbers; a unit scale keeps n = l (rhs 0) finite
        return (_gap_pair(-(d1 + d2) * math.sqrt(m) / den, qn.n + qn.l + 1.0, 1.0),
                _gap_pair((2.0 * a * E - d1 + d2) * math.sqrt(m) / den, qn.n - qn.l, 1.0))

    def unsquared_gap(self, spec, qn, E):
        return min(self._gaps(spec, qn, E), key=min)

    def decays(self, spec, qn, E):
        """Both Morse factors bound at one index, s0(n) = s1(l) > 0: the
        principal sign of the difference branch.  Its flipped sign leaves
        s0 - s1 = 2(l - n), and the sum branch s0 + s1 <= 0."""
        v0 = self._v0(spec, E)
        s0, s1 = (self._shape(spec, E, ax) * v0 - k - 0.5 for ax, k in ((0, qn.n), (1, qn.l)))
        return s0 > 0 and s1 > 0 and self._gaps(spec, qn, E)[1][0] < GAP_TOL

    def dispersion(self, spec, p, aux):
        return potentials._quantum_unit(spec.space) * p * p


class DIII_V5(Shifted):
    """The constant hbar^2 v0^2/2m over the D_III factor, separated in the uv,
    polar, parabolic and hyperbolic charts; the angle carries a plane wave."""

    couplings = ("v0",)
    forms = ("uv", "hyperbolic")
    signed_l = ("uv", "polar")  # the l of e^{ilv}
    deep = "plus"

    def form(self, spec, chart):
        return self.shift(spec)  # the same numerator in both charts

    def shift(self, spec):
        return potentials._quantum_unit(spec.space) * spec.c("v0") ** 2

    def scale(self, qn):
        return 0.5 if qn.scheme == "hyperbolic" else 1.0

    def _polar_index(self, spec, l):
        return abs(l)

    _uv_index = _polar_index  # |l| indexes both radii

    def _hyperbolic(self, spec, qn):
        """x = ln mu: the Morse row at a negative depth, on the growing-exponential
        side; y = ln nu: a genuine Morse well; both at one level."""
        _, b, m, hb, _ = _units(spec)
        rows = [_morse_row(lambda E, sg=sg: sg * (math.sqrt(-m * E * b) / hb),
                           lambda E, sg=sg: sg * self.level_sum(spec, E) / (b * E), 1)
                for sg in (-1.0, 1.0)]
        return _model_pair(spec, rows, qn, signed=True)

    separations = {"uv": Shifted._uv, "polar": Shifted._polar,
                   "parabolic": DIII_V1._parabolic, "hyperbolic": _hyperbolic}
    # the angle of uv and polar: the plane wave e^{ilv} on the circle
    angle_rows = dict.fromkeys(("uv", "polar"), lambda self, spec: Row(
        sf.WAVE, lambda E: (), _CIRCLE_WINDOW))

    def count(self, spec, qn):
        if qn.scheme == "uv":
            return 2.0 * qn.n + 2.0 * abs(qn.l) + 1.0
        if qn.scheme == "polar":
            return 2.0 * qn.n + abs(qn.l) + 1.0
        return qn.n + qn.l + 1.0  # parabolic and hyperbolic countings

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
        c, den = self.shift(spec), d3_factor(sp, par.chart)
        # coupling corrections fixed by the conservation requirement itself
        if name == "R1":
            return classical.observable_value(sp, "X1", st) + 0.125 * c * (
                eta * eta - xi * xi) / den
        return classical.observable_value(sp, "X2", st) + 0.25 * c * xi * eta / den


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


class DIV_V1(DIVFamily):
    """Centrifugal k1, k2 terms, minus alpha, plus an oscillator in omega:
    Poeschl-Teller times Morse in (u, v), two radial oscillators in the
    horospherical chart.  The potential holds omega only as omega^2, so the
    separations and the count read |omega|."""

    couplings = ("alpha", "k1", "k2", "omega")
    nonzero = ("omega",)
    forms = ("uv",)

    def form(self, spec, chart):
        _, _, m, _, hq = _units(spec)
        al, k1, k2, om = spec.c("alpha"), spec.c("k1"), spec.c("k2"), spec.c("omega")
        u, v = chart.q1, chart.q2
        return (
            hq * ((k1 * k1 - 0.25) / np.cos(u) ** 2 + (k2 * k2 - 0.25) / np.sin(u) ** 2)
            - 4.0 * al * np.exp(2.0 * v)
            + 8.0 * m * om * om * np.exp(4.0 * v)
        )

    def indices(self, spec, E: float):
        """lambda_1 = sqrt(k1^2 - 2 m a_- E / hbar^2), lambda_2 with k2 and a_+."""
        sp = spec.space
        return (_index_root(sp, spec.c("k1") ** 2, sp.a_minus, E),
                _index_root(sp, spec.c("k2") ** 2, sp.a_plus, E))

    def _uv(self, spec, qn):
        """u: Poeschl-Teller with indices (lambda_2, lambda_1); v, in the
        doubled variable x = 2v: a Morse well."""
        _, _, m, hb, _ = _units(spec)
        al, om = spec.c("alpha"), abs(spec.c("omega"))
        v0 = 2.0 * m * om / hb
        return _model_pair(spec, (
            Row(sf.PT, lambda E: self.indices(spec, E)[::-1], (0.15, math.pi / 2.0 - 0.15)),
            Row(sf.MORSE_BOUND, lambda E: (v0, al / (4.0 * m * om * om)),
                (0.5 * math.log(0.05 / (2.0 * v0)), 0.5 * math.log(25.0 / (2.0 * v0))), 2.0),
        ), qn)

    def _horospherical(self, spec, qn):
        """mu and nu > 0: radial oscillators with the indices lambda_1 and
        lambda_2, shifted by alpha."""
        om = abs(spec.c("omega"))
        q = spec.space.mass * om / spec.space.hbar
        window = (0.25 / math.sqrt(q), math.sqrt(30.0 / q))
        rows = [Row(sf.RHO, lambda E, i=i: (om, self.indices(spec, E)[i]), window) for i in (0, 1)]
        return _model_pair(spec, rows, qn, lambda E: spec.c("alpha"))

    separations = {"uv": _uv, "horospherical": _horospherical}

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
        """count > 0, which puts l on its v row's ladder: alpha/(2 hbar |w|) - l
        - 1/2 > n + 1/2 (Morse), (|k2| - |k1| - 1)/2 > n + l + 1/2 (V2's MPT)."""
        return self.count(spec, qn) > 0

    def dispersion(self, spec, p, aux):
        sp = spec.space
        return potentials._quantum_unit(sp) / sp.a_plus * (p * p + spec.c("k2") ** 2)


class DIV_V2(DIVFamily):
    """Centrifugal k1, k2, k3 terms: Poeschl-Teller times a bound modified
    Poeschl-Teller in (u, v); its degelliptic2 states are the (u, v) states
    pulled back."""

    couplings = ("k1", "k2", "k3")
    centrifugal = "k3"  # the coupling of the dispersion
    forms = ("uv",)
    pullbacks = {"degelliptic2": ((0.35, 1.6), (0.25, math.pi / 4.0 - 0.12))}

    def form(self, spec, chart):
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

    def _uv(self, spec, qn):
        """u: Poeschl-Teller with indices (lambda_+, lambda_-); v: a bound
        modified Poeschl-Teller with indices (|k1|, |k2|)."""
        k1, k2 = abs(spec.c("k1")), abs(spec.c("k2"))
        return _model_pair(spec, (
            Row(sf.PT, lambda E: self.indices(spec, E), (0.15, math.pi / 2.0 - 0.15)),
            Row(sf.MPT_BOUND, lambda E: (k1, k2), (0.8, 6.5))), qn)

    separations = {"uv": _uv}

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
    decays = DIV_V1.decays

    def dispersion(self, spec, p, aux):
        sp = spec.space
        apm = _a_minus(spec) if aux == "degelliptic" else sp.a_plus
        return potentials._quantum_unit(sp) / apm * (p * p + spec.c(self.centrifugal) ** 2)


class DIV_V3(DIVFamily):
    """The c1, c2, c3 terms of the degenerate elliptic charts: Poeschl-Teller
    times a bound modified Poeschl-Teller in degelliptic2, quantized by one
    transcendental condition in the four index roots of
    ``potentials.div3_indices``.  It is never squared and has one level per
    (n, l) or none.  Each index is sqrt(C - kappa E), kappa > 0, and lam_2+^2 -
    lam_3+^2 = c3 - c2: if c3 >= c2, lam_2+ - lam_3+ does not decrease with E
    and -lam_3- - lam_1- increases, so ``gap`` increases; if c3 < c2, ``gap`` <
    -2.  It tends to -inf as E does, so the level exists exactly when ``gap`` is
    positive at the top of ``first_bracket``, and carries unsquared sign +1.  It needs
    no decay rule: at a root, lam_2+ - lam_3+ - 2l - 1 = lam_3- + lam_1- + 2n + 1
    puts n and l on the ladder of the MPT row."""

    couplings = ("c1", "c2", "c3")
    forms = ("degelliptic2", "degelliptic1")
    transcendental = True

    def form(self, spec, chart):
        hq = potentials._quantum_unit(spec.space)
        c1, c2, c3 = spec.c("c1"), spec.c("c2"), spec.c("c3")
        q1, q2 = chart.q1, chart.q2
        if chart.name == "degelliptic1":
            return hq * (c3 / np.sinh(q1) ** 2 + c2 / np.cosh(q1) ** 2
                         + c3 * (1.0 / np.sin(q2) ** 2 - 1.0 / np.cos(q2) ** 2))
        return hq * (c1 / np.cos(q2) ** 2 + c2 / np.cosh(q1) ** 2
                     + c3 * (1.0 / np.sin(q2) ** 2 - 1.0 / np.sinh(q1) ** 2))

    def _degelliptic2(self, spec, qn):
        """A bound modified Poeschl-Teller with indices (lam_3+, lam_2+) times
        a Poeschl-Teller with indices (lam_3-, lam_1-)."""
        def pair(*keys):
            return lambda E: itemgetter(*keys)(potentials.div3_indices(spec, E))

        return _model_pair(spec, (Row(sf.MPT_BOUND, pair("3p", "2p"), (0.3, 10.0)),
                                  Row(sf.PT, pair("3m", "1m"), (0.12, math.pi / 4.0 - 0.02))),
                           qn)

    separations = {"degelliptic2": _degelliptic2}

    def gap(self, spec, qn, E):
        """The condition lam_2+ - lam_3+ - lam_3- - lam_1- - 2(n + l) - 2, on
        which both separations close (their lam_req pair reads these four
        indices); NaN where an index is complex.  E may be an array of energies."""
        lam = potentials.div3_indices(spec, E)
        nl = 2.0 * (qn.n + qn.l)
        return lam["2p"] - lam["3p"] - lam["3m"] - lam["1m"] - nl - 2.0

    def first_bracket(self, spec):
        """(E_top - hbar^2/(2 m a_+), E_top): E_top, the same at every (n, l),
        lies just below 0 and below the energy where an index turns complex."""
        sp = spec.space
        _a_minus(spec)  # ParamError at a = 2b, where no E_top exists
        hb2, squares = sp.hbar ** 2, potentials.div3_squares(spec)
        e_top = min(0.0, *(k * hb2 / (2.0 * sp.mass * apm) for k, apm in squares)) - 1e-12
        # where 1e-12 is under an ulp of E_top an index square can round negative
        # there; each grows as E falls (a_pm > 0), so a few ulps lower it is not
        while min(potentials.index_square(sp, k, apm, e_top) for k, apm in squares) < 0:
            e_top = math.nextafter(e_top, -math.inf)
        return e_top - hb2 / (2.0 * sp.mass * sp.a_plus), e_top

    def unsquared_gap(self, spec, qn, E):
        g = abs(self.gap(spec, qn, E))
        if math.isnan(g):
            raise DomainError(f"a DIV_V3 index root is complex at E = {E!r}")
        return g / (1.0 + g), 1.0

    def dispersion(self, spec, p, aux):
        sp = spec.space
        return potentials._quantum_unit(sp) / _a_minus(spec) * (p * p + 0.25 - spec.c("c3"))


class DIV_V4(DIVFamily):
    """The centrifugal k0 term: a continuous spectrum only."""

    couplings = ("k0",)
    forms = ("uv",)
    centrifugal = "k0"
    dispersion = DIV_V2.dispersion

    def form(self, spec, chart):
        hq, k0, u = potentials._quantum_unit(spec.space), spec.c("k0"), chart.q1
        return hq * (k0 * k0 - 0.25) * (1.0 / np.sin(u) ** 2 + 1.0 / np.cos(u) ** 2)

    def constant(self, spec, name, state):
        """R3 = mu p_mu + nu p_nu."""
        from . import classical

        if name != "R3":
            return super().constant(spec, name, state)
        st = classical.transform_state(spec.space, state, "horospherical")
        return st.chart.q1 * st.p1 + st.chart.q2 * st.p2


FAMILIES = {rec.name: rec for rec in (DIII_V1(), DIII_V2(), DIII_V3(), DIII_V4(), DIII_V5(),
                                      DIV_V1(), DIV_V2(), DIV_V3(), DIV_V4())}
