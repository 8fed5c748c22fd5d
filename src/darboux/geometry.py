"""Metrics, curvature, and coordinate charts for the Darboux surfaces D_III and D_IV.

Both surfaces are two-dimensional spaces of non-constant curvature.  In the
canonical (u, v) chart the line elements are

    D_III :  ds^2 = (a e^{-u} + b e^{-2u}) (du^2 + dv^2),      a, b > 0,
    D_IV  :  ds^2 = (a_+/sin^2 u + a_-/cos^2 u) (du^2 + dv^2), a_pm = (a +- 2b)/4,

with u in (0, pi/2) for D_IV.  Each chart is one row of ``CHARTS``: its
domain, metric factor and analytic maps to and from (u, v), through which
all transforms route.  Every real map takes points and grids alike.

The D_III hyperbolic chart (mu, nu), with its signed diagonal metric, and the
D_IV degenerate elliptic I chart are analytically continued sections; they
support metric and potential evaluation only, not real point transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParamError, UnsupportedChartError, UnsupportedError

DIII = "DIII"
DIV = "DIV"


@dataclass(frozen=True)
class SpaceParams:
    """Which Darboux surface, its metric parameters and physical constants."""

    family: str
    a: float
    b: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.family not in (DIII, DIV):
            raise ParamError(f"unknown family {self.family!r}")
        if not all(math.isfinite(x) for x in (self.a, self.b, self.hbar, self.mass)):
            raise ParamError("a, b, hbar and mass must be finite")
        if self.hbar <= 0 or self.mass <= 0:
            raise ParamError("hbar and mass must be positive")
        if self.family == DIII:
            if self.a <= 0 or self.b < 0:
                raise ParamError("D_III requires a > 0 and b >= 0")
        else:
            # a >= 2b > 0 keeps a_+ > 0 and a_+ >= a_- >= 0; a = 2b is the
            # hyperboloid limit, b = 0 a second constant-curvature limit.
            if self.a < 2 * self.b or self.a <= 0 or self.b < 0:
                raise ParamError("D_IV requires a >= 2b >= 0 and a > 0")

    @property
    def a_plus(self) -> float:
        if self.family != DIV:
            raise ParamError("a_plus is defined for D_IV only")
        return (self.a + 2 * self.b) / 4.0

    @property
    def a_minus(self) -> float:
        if self.family != DIV:
            raise ParamError("a_minus is defined for D_IV only")
        return (self.a - 2 * self.b) / 4.0


@dataclass(frozen=True)
class Chart:
    """A chart name with a point (q1, q2) in it, or a grid of points as
    broadcastable arrays (what is evaluated on them broadcasts against the
    grid); ``d`` is the focal parameter of the elliptic charts, unused elsewhere."""

    name: str
    q1: float | np.ndarray
    q2: float | np.ndarray
    d: float = 1.0


def _is_grid(*coords) -> bool:
    """Whether coordinates or momenta are arrays (a grid), not one point; floats skip numpy."""
    for x in coords:
        if not isinstance(x, float) and np.ndim(x):
            return True
    return False


def _anywhere(mask) -> bool:
    """Whether a condition (a bool, or a bool array over a grid) holds anywhere."""
    # count_nonzero costs a third of .any() on the few points of a flow step
    return bool(np.count_nonzero(mask) if isinstance(mask, np.ndarray) else mask)


@dataclass(frozen=True)
class ChartRow:
    """One chart of one surface.  ``outside(space, q1, q2, d)`` flags points off
    its domain (None: no point is), which ``message`` states; ``factor(space, q1,
    q2, d)`` is the metric factor f, ``diag(f, q1, q2)`` the (g11, g22) of a
    non-conformal chart (None: (f, f)); ``to_uv(q1, q2, d)``, ``from_uv(u, v, d)``
    the real maps (None: none); ``d3`` the D_III factor, on the charts that
    potential forms are written in (None: none)."""

    factor: Callable
    outside: Callable | None = None
    message: str = ""
    diag: Callable | None = None
    to_uv: Callable | None = None
    from_uv: Callable | None = None
    d3: Callable | None = None


def _focal(q1, q2, d):
    # (d cosh q1 cos q2, d sinh q1 sin q2): an elliptic point in the plane it
    # covers, the parabolic (xi, eta) on D_III and the horospherical (mu, nu) on D_IV
    return d * np.cosh(q1) * np.cos(q2), d * np.sinh(q1) * np.sin(q2)


def _from_focal(x, y, d):
    # the inverse of _focal with q1 >= 0: d cos(q2 - i q1) = x + i y
    w = np.arccos((x + 1j * y) / d)
    return np.abs(w.imag), np.where(w.imag > 0, -w.real, w.real)


def _parabolic_to_uv(xi, eta, d):
    return np.log(4.0 / (xi ** 2 + eta ** 2)), 2.0 * np.arctan2(eta, xi)


def _uv_to_parabolic(u, v, d):
    rho = 2.0 * np.exp(-u / 2.0)
    return rho * np.cos(v / 2.0), rho * np.sin(v / 2.0)


def _horospherical_to_uv(mu, nu, d):
    return np.arctan2(nu, mu), np.log(np.hypot(mu, nu) / 2.0)


def _uv_to_horospherical(u, v, d):
    return 2.0 * np.exp(v) * np.cos(u), 2.0 * np.exp(v) * np.sin(u)


def _degelliptic2_to_uv(q1, q2, d):
    z = np.tan(q2 - 1j * q1)
    return -np.angle(z), np.log(np.abs(z))


def _uv_to_degelliptic2(u, v, d):
    w = np.arctan(np.exp(v - 1j * u))
    return -w.imag, w.real


def _d3_parabolic(sp, xi, eta, d):
    return sp.a + 0.25 * sp.b * (xi * xi + eta * eta)


def _d3_hyperbolic(sp, q1, q2, d):
    return sp.a + 0.5 * sp.b * (q1 - q2)


def _outside_phi_patch(sp, q1, q2, d):
    return (q1 <= 0) | (q2 <= 0) | (q2 >= math.pi / 2)


CHARTS = {
    DIII: {
        "uv": ChartRow(
            factor=lambda sp, q1, q2, d: sp.a * np.exp(-q1) + sp.b * np.exp(-2.0 * q1),
            d3=lambda sp, q1, q2, d: sp.a + sp.b * np.exp(-q1),
            to_uv=lambda q1, q2, d: (q1, q2), from_uv=lambda u, v, d: (u, v)),
        "polar": ChartRow(
            outside=lambda sp, q1, q2, d: q1 <= 0, message="polar chart requires rho > 0",
            factor=lambda sp, q1, q2, d: sp.a + 0.25 * sp.b * q1 ** 2,
            diag=lambda f, q1, q2: (f, f * q1 ** 2),
            to_uv=lambda q1, q2, d: (2.0 * np.log(2.0 / q1), 2.0 * q2),
            from_uv=lambda u, v, d: (2.0 * np.exp(-u / 2.0), v / 2.0)),
        "parabolic": ChartRow(factor=_d3_parabolic, to_uv=_parabolic_to_uv,
                              from_uv=_uv_to_parabolic, d3=_d3_parabolic),
        "elliptic": ChartRow(
            outside=lambda sp, q1, q2, d: (q1 <= 0) | (d <= 0),
            message="elliptic chart requires omega > 0 and d > 0",
            factor=lambda sp, q1, q2, d: _d3_parabolic(sp, *_focal(q1, q2, d), d) * d * d * (
                np.sinh(q1) ** 2 + np.sin(q2) ** 2),
            to_uv=lambda q1, q2, d: _parabolic_to_uv(*_focal(q1, q2, d), d),
            from_uv=lambda u, v, d: _from_focal(*_uv_to_parabolic(u, v, d), d)),
        "hyperbolic": ChartRow(
            outside=lambda sp, q1, q2, d: ((q1 <= 0) | (q2 <= 0)
                                           | (_d3_hyperbolic(sp, q1, q2, d) <= 0)),
            message="hyperbolic chart requires mu, nu > 0 and a + b(mu - nu)/2 > 0",
            factor=lambda sp, q1, q2, d: _d3_hyperbolic(sp, q1, q2, d) * (q1 + q2),
            diag=lambda f, q1, q2: (f / q1 ** 2, -f / q2 ** 2), d3=_d3_hyperbolic),
    },
    DIV: {
        "uv": ChartRow(
            outside=lambda sp, q1, q2, d: (q1 <= 0) | (q1 >= math.pi / 2),
            message="D_IV uv chart requires 0 < u < pi/2",
            factor=lambda sp, q1, q2, d: (sp.a_plus / np.sin(q1) ** 2
                                          + sp.a_minus / np.cos(q1) ** 2),
            to_uv=lambda q1, q2, d: (q1, q2), from_uv=lambda u, v, d: (u, v)),
        "horospherical": ChartRow(
            outside=lambda sp, q1, q2, d: (q1 <= 0) | (q2 <= 0),
            message="horospherical chart requires mu, nu > 0",
            factor=lambda sp, q1, q2, d: sp.a_plus / q2 ** 2 + sp.a_minus / q1 ** 2,
            to_uv=_horospherical_to_uv, from_uv=_uv_to_horospherical),
        "degelliptic1": ChartRow(
            outside=_outside_phi_patch,
            message="degenerate elliptic I requires omega > 0, 0 < phi < pi/2",
            factor=lambda sp, q1, q2, d: (
                sp.a_minus * (1.0 / np.sinh(q1) ** 2 + 1.0 / np.sin(q2) ** 2)
                - sp.a_plus * (1.0 / np.cosh(q1) ** 2 - 1.0 / np.cos(q2) ** 2))),
        "degelliptic2": ChartRow(
            outside=_outside_phi_patch,
            message="degenerate elliptic II requires omega > 0, 0 < phi < pi/2",
            factor=lambda sp, q1, q2, d: 4.0 * (sp.a_plus / np.sinh(2.0 * q1) ** 2
                                                + sp.a_minus / np.sin(2.0 * q2) ** 2),
            to_uv=_degelliptic2_to_uv, from_uv=_uv_to_degelliptic2),
        "elliptic": ChartRow(
            outside=lambda sp, q1, q2, d: _outside_phi_patch(sp, q1, q2, d) | (d <= 0),
            message="elliptic chart requires omega > 0, 0 < phi < pi/2 and d > 0",
            factor=lambda sp, q1, q2, d: (
                sp.a_plus / np.sin(q2) ** 2 + sp.a_minus / np.cos(q2) ** 2
                + sp.a_plus / np.sinh(q1) ** 2 - sp.a_minus / np.cosh(q1) ** 2),
            to_uv=lambda q1, q2, d: _horospherical_to_uv(*_focal(q1, q2, d), d),
            from_uv=lambda u, v, d: _from_focal(*_uv_to_horospherical(u, v, d), d)),
    },
}


def validate_chart(space: SpaceParams, chart: Chart) -> None:
    """Raise DomainError/ParamError unless every point lies in the chart domain."""
    row = CHARTS[space.family].get(chart.name)
    if row is None:
        raise ParamError(f"chart {chart.name!r} unknown for {space.family}")
    q1, q2 = chart.q1, chart.q2
    try:  # free until it catches, from Python 3.11 on
        if _is_grid(q1, q2):
            if np.iscomplexobj(q1) or np.iscomplexobj(q2):
                raise TypeError  # as math.isfinite refuses one complex point
            finite = np.isfinite(q1) & np.isfinite(q2)
            finite = np.count_nonzero(finite) == finite.size
        else:
            finite = math.isfinite(q1) and math.isfinite(q2)
        if not finite:
            raise DomainError("non-finite chart point")
        if row.outside is not None and _anywhere(row.outside(space, q1, q2, chart.d)):
            raise DomainError(row.message)
    except TypeError:  # a Python list has no elementwise comparison, a string or complex no value
        raise ParamError("chart coordinates must be real numbers or numpy arrays") from None


def d3_factor(space: SpaceParams, chart: Chart):
    """The D_III factor a + b(xi^2 + eta^2)/4 at the chart point(s), in the variables
    of a chart that D_III potential forms are written in: a + b e^{-u} (uv), a +
    b(mu - nu)/2 (hyperbolic).  Any other chart raises UnsupportedError."""
    row = CHARTS[space.family].get(chart.name)
    if row is None or row.d3 is None:
        raise UnsupportedError(f"no D_III factor for chart {chart.name!r} on {space.family}")
    return row.d3(space, chart.q1, chart.q2, chart.d)


def conformal_factor(space: SpaceParams, name: str, q1, q2, d: float = 1.0):
    """Conformal metric factor f with ds^2 = f (dq1^2 + dq2^2).

    Only defined for the conformal charts; accepts scalars or arrays.
    """
    row = CHARTS[space.family].get(name)
    if row is None or row.diag is not None:
        raise UnsupportedError(f"no conformal factor for chart {name!r} on {space.family}")
    return row.factor(space, q1, q2, d)


def metric_diag(space: SpaceParams, chart: Chart):
    """Diagonal metric components (g11, g22) at the chart point(s).

    The D_III polar chart returns (f, f*rho^2); the D_III hyperbolic chart
    returns the signed pair (f/mu^2, -f/nu^2) with
    f = (a + b(mu - nu)/2)(mu + nu).
    """
    validate_chart(space, chart)
    row = CHARTS[space.family][chart.name]
    f = row.factor(space, chart.q1, chart.q2, chart.d)
    return (f, f) if row.diag is None else row.diag(f, chart.q1, chart.q2)


def sqrt_g(space: SpaceParams, chart: Chart):
    """Riemannian area density sqrt|det g| at the chart point(s)."""
    g11, g22 = metric_diag(space, chart)
    return np.sqrt(np.abs(g11 * g22))


def curvature_closed(space: SpaceParams, point_uv) -> float:
    """Closed-form Gaussian curvature in the (u, v) chart.

    For D_III with f = a e^{-u} + b e^{-2u}:  G = -a b e^{-3u} / (2 f^3), evaluated
        as -(a r)(b r) r / 2 with r = e^u / (a e^u + b), finite wherever G is.
    For D_IV  with f = a_+/sin^2 u + a_-/cos^2 u:
        G = -(a_+^2/sin^6 u + a_-^2/cos^6 u + 3 a_+ a_- /(sin^4 u cos^4 u)) / f^3.
    Both follow from G = -(1/2f) (d^2/du^2) ln f for a v-independent factor.
    """
    u = float(point_uv[0])
    validate_chart(space, Chart("uv", u, point_uv[1]))
    if space.family == DIII:
        a, b = space.a, space.b
        t = math.exp(-abs(u))
        r = 1.0 / (a + b * t) if u >= 0 or b == 0 else t / (a * t + b)
        return -0.5 * (a * r) * (b * r) * r
    ap, am = space.a_plus, space.a_minus
    s2, c2 = math.sin(u) ** 2, math.cos(u) ** 2
    try:
        f = ap / s2 + am / c2
        num = ap * ap / s2 ** 3 + am * am / c2 ** 3 + 3.0 * ap * am / (s2 ** 2 * c2 ** 2)
        return -num / f ** 3
    except (OverflowError, ZeroDivisionError):  # u below about 1e-53: sin^6 u underflows
        # the same ratio times sin^6 u cos^6 u over itself; -1/a_+ as u -> 0
        num = ap * ap * c2 ** 3 + am * am * s2 ** 3 + 3.0 * ap * am * s2 * c2
        return -num / (ap * c2 + am * s2) ** 3


# curvature_numeric's stencil in units of its step h, along a trailing axis: the
# 5-point stencil of step h (q1 +- 1, q2 +- 1, centre), then that of step h/2
_STENCIL_Q1 = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.5, -0.5, 0.0, 0.0, 0.0])
_STENCIL_Q2 = np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.5, -0.5, 0.0])
# minus the 5-point Laplacian's weights: summed in stencil order, the negated
# terms give the negated sum bit for bit
_LAPLACE_WEIGHTS = np.array([-1.0, -1.0, -1.0, -1.0, 4.0])
# each ln f of the h/2 stencil is off by about eps (1 + |ln f|), and the
# stencil weighs its five values by 1, 1, 1, 1 and 4
_STENCIL_NOISE = 8.0 * float(np.finfo(float).eps)


def curvature_numeric(space: SpaceParams, chart: Chart, step: float = 1e-3):
    """Gaussian curvature G = -(1/2f) Lap ln f by central differences.

    Uses the 5-point Laplacian of ln f at steps h and h/2 with one Richardson
    extrapolation.  The chart may hold a grid of points.  Requires a conformal
    chart; if any point's stencil leaves the chart domain, DomainError.  A step
    that is not finite and positive, whose half squares to 0, that gives a
    non-finite G, or so small that the stencil's rounding bound exceeds
    1e-3 (1 + |G|) raises ParamError.
    """
    if not (math.isfinite(step) and step > 0 and (step / 2.0) ** 2 > 0):
        raise ParamError(f"step must be finite and positive with a nonzero square, got {step!r}")
    h, k = step, step / 2.0
    pts = Chart(chart.name, np.asarray(chart.q1)[..., None] + h * _STENCIL_Q1,
                np.asarray(chart.q2)[..., None] + h * _STENCIL_Q2, chart.d)
    validate_chart(space, pts)
    if CHARTS[space.family][chart.name].diag is not None:
        raise DomainError(f"chart {chart.name!r} is not conformal")
    f = conformal_factor(space, chart.name, pts.q1, pts.q2, chart.d)
    if _anywhere(f <= 0):
        raise DomainError("metric factor not positive inside stencil")
    vals = np.log(f)
    two_f0, ln_f0 = 2.0 * f[..., 4], vals[..., 4]
    # minus both 5-point Laplacians of ln f times their steps squared: each stencil's
    # weighted values summed in stencil order (np.add.accumulate adds left to right)
    neg = np.add.accumulate(vals.reshape(vals.shape[:-1] + (2, 5)) * _LAPLACE_WEIGHTS, axis=-1)
    g_hk = neg[..., 4] / np.array([h ** 2, k ** 2]) / two_f0[..., None]  # G at steps h, h/2
    g = (4.0 * g_hk[..., 1] - g_hk[..., 0]) / 3.0
    if _anywhere(~np.isfinite(g)):
        raise ParamError(f"step {step!r} gives a non-finite curvature")
    noise = _STENCIL_NOISE * (1.0 + abs(ln_f0)) / k ** 2
    if _anywhere(noise / two_f0 > 1e-3 * (1.0 + abs(g))):
        raise ParamError(f"step {step!r} is so small that rounding error exceeds 1e-3 (1 + |G|)")
    return g


# ----------------------------------------------------------------------
# chart transforms (all routed through the (u, v) chart)
# ----------------------------------------------------------------------

def _map_point(space: SpaceParams, from_name: str, to_name: str, q1, q2, d):
    """The image in chart ``to_name`` of the point(s) (q1, q2) of chart ``from_name``,
    through (u, v) and unchecked: a point without an image comes out non-finite.
    A chart with no real map raises UnsupportedChartError."""
    rows = CHARTS[space.family]
    to_uv, from_uv = rows[from_name].to_uv, rows[to_name].from_uv
    if to_uv is None or from_uv is None:
        raise UnsupportedChartError(f"chart {from_name!r} -> {to_name!r} has no real transform")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return from_uv(*to_uv(q1, q2, d), d)


def chart_transform(space: SpaceParams, chart: Chart, to_name: str) -> Chart:
    """Express the chart point(s) in the chart named ``to_name``, through (u, v).

    The chart may hold a grid; a single point is mapped as a one-element array
    and comes back as floats.  The complexified sections (D_III hyperbolic,
    D_IV degelliptic1) support only the identity (UnsupportedChartError).  A
    point whose image leaves the target chart raises DomainError."""
    validate_chart(space, chart)
    if to_name not in CHARTS[space.family]:
        raise ParamError(f"chart {to_name!r} unknown for {space.family}")
    if to_name == chart.name:
        return chart
    q1, q2 = (np.atleast_1d(np.asarray(q, dtype=float)) for q in (chart.q1, chart.q2))
    # a point without an image comes out non-finite, and validate_chart refuses it
    q1, q2 = _map_point(space, chart.name, to_name, q1, q2, chart.d)
    out = Chart(to_name, q1, q2, chart.d) if _is_grid(chart.q1, chart.q2) \
        else Chart(to_name, float(q1[0]), float(q2[0]), chart.d)
    validate_chart(space, out)
    return out
