"""Metrics, curvature, and coordinate charts for the Darboux surfaces D_III and D_IV.

Both surfaces are two-dimensional spaces of non-constant curvature.  In the
canonical (u, v) chart the line elements are

    D_III :  ds^2 = (a e^{-u} + b e^{-2u}) (du^2 + dv^2),      a, b > 0,
    D_IV  :  ds^2 = (a_+/sin^2 u + a_-/cos^2 u) (du^2 + dv^2), a_pm = (a +- 2b)/4,

with u in (0, pi/2) for D_IV.  Every other chart is reached from (u, v) by an
explicit analytic map; all inter-chart transforms route through (u, v).

The D_III hyperbolic chart (mu, nu) is an analytically continued section with
a signed diagonal metric; it supports metric evaluation and potential
evaluation only, not real point transforms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParamError, UnsupportedError

DIII = "DIII"
DIV = "DIV"

CHARTS = {
    DIII: ("uv", "polar", "parabolic", "elliptic", "hyperbolic"),
    DIV: ("uv", "horospherical", "degelliptic1", "degelliptic2", "elliptic"),
}

# charts with g11 == g22 (usable by the conformal curvature stencil)
CONFORMAL_CHARTS = {
    DIII: ("uv", "parabolic", "elliptic"),
    DIV: ("uv", "horospherical", "degelliptic1", "degelliptic2", "elliptic"),
}


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
    """A chart name together with a point (q1, q2) in it.

    q1 and q2 may be broadcastable arrays, a grid of points in one chart;
    what is evaluated on them broadcasts against the grid.
    ``d`` is the focal parameter of the elliptic charts and is ignored
    elsewhere.
    """

    name: str
    q1: float | np.ndarray
    q2: float | np.ndarray
    d: float = 1.0


def _anywhere(mask) -> bool:
    """Whether a condition (a bool, or a bool array over a grid) holds anywhere."""
    # count_nonzero costs a third of .any() on the few points of a flow step
    return bool(np.count_nonzero(mask) if isinstance(mask, np.ndarray) else mask)


def validate_chart(space: SpaceParams, chart: Chart) -> None:
    """Raise DomainError/ParamError unless every point lies in the chart domain."""
    if chart.name not in CHARTS[space.family]:
        raise ParamError(f"chart {chart.name!r} unknown for {space.family}")
    q1, q2 = chart.q1, chart.q2
    fam = space.family
    name = chart.name
    if _anywhere(~(np.isfinite(q1) & np.isfinite(q2))):
        raise DomainError("non-finite chart point")
    if fam == DIII:
        if name == "polar" and _anywhere(q1 <= 0):
            raise DomainError("polar chart requires rho > 0")
        if name == "elliptic" and (_anywhere(q1 <= 0) or chart.d <= 0):
            raise DomainError("elliptic chart requires omega > 0 and d > 0")
        if name == "hyperbolic":
            if _anywhere((q1 <= 0) | (q2 <= 0)):
                raise DomainError("hyperbolic chart requires mu, nu > 0")
            if _anywhere(d3_factor(space, chart) <= 0):
                raise DomainError("hyperbolic point outside the metric's domain")
    else:
        if name == "uv" and _anywhere((q1 <= 0) | (q1 >= math.pi / 2)):
            raise DomainError("D_IV uv chart requires 0 < u < pi/2")
        if name == "horospherical" and _anywhere((q1 <= 0) | (q2 <= 0)):
            raise DomainError("horospherical chart requires mu, nu > 0")
        if name == "degelliptic2" and _anywhere((q1 <= 0) | (q2 <= 0) | (q2 >= math.pi / 4)):
            raise DomainError("degenerate elliptic II requires omega > 0, 0 < phi < pi/4")
        if name == "degelliptic1" and _anywhere((q1 <= 0) | (q2 <= 0) | (q2 >= math.pi / 2)):
            raise DomainError("degenerate elliptic I requires omega > 0, 0 < phi < pi/2")
        if name == "elliptic" and (
            chart.d <= 0 or _anywhere((q1 <= 0) | (q2 <= 0) | (q2 >= math.pi / 2))
        ):
            raise DomainError("elliptic chart requires omega > 0, 0 < phi < pi/2")


def d3_factor(space: SpaceParams, chart: Chart):
    """The D_III factor a + b(xi^2 + eta^2)/4 at the chart point(s), written in
    the chart's own variables: a + b e^{-u} (uv), a + b rho^2/4 (polar),
    a + b(mu - nu)/2 (hyperbolic); the parabolic and elliptic charts go
    through their (xi, eta)."""
    a, b, q1, q2 = space.a, space.b, chart.q1, chart.q2
    if chart.name == "uv":
        return a + b * np.exp(-q1)
    if chart.name == "polar":
        return a + 0.25 * b * q1 ** 2
    if chart.name == "hyperbolic":
        return a + 0.5 * b * (q1 - q2)
    xi, eta = (q1, q2) if chart.name == "parabolic" else elliptic_cartesian(chart)
    return a + 0.25 * b * (xi * xi + eta * eta)


def conformal_factor(space: SpaceParams, name: str, q1, q2, d: float = 1.0):
    """Conformal metric factor f with ds^2 = f (dq1^2 + dq2^2).

    Only defined for the conformal charts; accepts scalars or arrays.
    """
    a, b = space.a, space.b
    if space.family == DIII:
        if name == "uv":
            return a * np.exp(-q1) + b * np.exp(-2.0 * q1)
        if name == "parabolic":
            return d3_factor(space, Chart(name, q1, q2))
        if name == "elliptic":
            return d3_factor(space, Chart(name, q1, q2, d)) * d * d * (
                np.sinh(q1) ** 2 + np.sin(q2) ** 2)
    else:
        ap, am = space.a_plus, space.a_minus
        if name == "uv":
            return ap / np.sin(q1) ** 2 + am / np.cos(q1) ** 2
        if name == "horospherical":
            return ap / q2 ** 2 + am / q1 ** 2
        if name == "degelliptic2":
            return 4.0 * (ap / np.sinh(2.0 * q1) ** 2 + am / np.sin(2.0 * q2) ** 2)
        if name == "degelliptic1":
            return am * (1.0 / np.sinh(q1) ** 2 + 1.0 / np.sin(q2) ** 2) - ap * (
                1.0 / np.cosh(q1) ** 2 - 1.0 / np.cos(q2) ** 2
            )
        if name == "elliptic":
            return (
                ap / np.sin(q2) ** 2
                + am / np.cos(q2) ** 2
                + ap / np.sinh(q1) ** 2
                - am / np.cosh(q1) ** 2
            )
    raise UnsupportedError(f"no conformal factor for chart {name!r} on {space.family}")


def metric_diag(space: SpaceParams, chart: Chart):
    """Diagonal metric components (g11, g22) at the chart point(s).

    The D_III polar chart returns (f, f*rho^2); the D_III hyperbolic chart
    returns the signed pair (f/mu^2, -f/nu^2) with
    f = (a + b(mu - nu)/2)(mu + nu).
    """
    validate_chart(space, chart)
    name, q1, q2 = chart.name, chart.q1, chart.q2
    if space.family == DIII and name == "polar":
        f = d3_factor(space, chart)
        return (f, f * q1 ** 2)
    if space.family == DIII and name == "hyperbolic":
        f = d3_factor(space, chart) * (q1 + q2)
        return (f / q1 ** 2, -f / q2 ** 2)
    f = conformal_factor(space, name, q1, q2, chart.d)
    return (f, f)


def sqrt_g(space: SpaceParams, chart: Chart):
    """Riemannian area density sqrt|det g| at the chart point(s)."""
    g11, g22 = metric_diag(space, chart)
    return np.sqrt(np.abs(g11 * g22))


def curvature_closed(space: SpaceParams, point_uv) -> float:
    """Closed-form Gaussian curvature in the (u, v) chart.

    For D_III with f = a e^{-u} + b e^{-2u}:  G = -a b e^{-3u} / (2 f^3).
    For D_IV  with f = a_+/sin^2 u + a_-/cos^2 u:
        G = -(a_+^2/sin^6 u + a_-^2/cos^6 u + 3 a_+ a_- /(sin^4 u cos^4 u)) / f^3.
    Both follow from G = -(1/2f) (d^2/du^2) ln f for a v-independent factor.
    """
    u = float(point_uv[0])
    if space.family == DIII:
        f = space.a * math.exp(-u) + space.b * math.exp(-2.0 * u)
        return -space.a * space.b * math.exp(-3.0 * u) / (2.0 * f ** 3)
    ap, am = space.a_plus, space.a_minus
    if not 0 < u < math.pi / 2:
        raise DomainError("D_IV uv chart requires 0 < u < pi/2")
    s2, c2 = math.sin(u) ** 2, math.cos(u) ** 2
    f = ap / s2 + am / c2
    num = ap * ap / s2 ** 3 + am * am / c2 ** 3 + 3.0 * ap * am / (s2 ** 2 * c2 ** 2)
    return -num / f ** 3


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
    validate_chart(space, chart)
    if chart.name not in CONFORMAL_CHARTS[space.family]:
        raise DomainError(f"chart {chart.name!r} is not conformal")
    # each point's stencil runs along a trailing axis
    q1, q2 = np.asarray(chart.q1)[..., None], np.asarray(chart.q2)[..., None]

    def lap_lnf(h):
        # the stencil points: centre, q1 +- h, q2 +- h
        pts = replace(chart, q1=q1 + np.array([0.0, h, -h, 0.0, 0.0]),
                      q2=q2 + np.array([0.0, 0.0, 0.0, h, -h]))
        validate_chart(space, pts)
        f = conformal_factor(space, chart.name, pts.q1, pts.q2, chart.d)
        if (f <= 0).any():
            raise DomainError("metric factor not positive inside stencil")
        vals = np.log(f)
        return (vals[..., 1] + vals[..., 2] + vals[..., 3] + vals[..., 4]
                - 4.0 * vals[..., 0]) / h ** 2

    f0 = conformal_factor(space, chart.name, chart.q1, chart.q2, chart.d)
    g_h = -lap_lnf(step) / (2.0 * f0)
    g_h2 = -lap_lnf(step / 2.0) / (2.0 * f0)
    g = (4.0 * g_h2 - g_h) / 3.0
    if _anywhere(~np.isfinite(g)):
        raise ParamError(f"step {step!r} gives a non-finite curvature")
    # each ln f of the h/2 stencil is off by about eps (1 + |ln f|), and the
    # stencil weighs its five values by 1, 1, 1, 1 and 4
    noise = 8.0 * np.finfo(float).eps * (1.0 + np.abs(np.log(f0))) / (step / 2.0) ** 2
    if _anywhere(noise / (2.0 * f0) > 1e-3 * (1.0 + np.abs(g))):
        raise ParamError(f"step {step!r} is so small that rounding error exceeds 1e-3 (1 + |G|)")
    return g


# ----------------------------------------------------------------------
# chart transforms (all routed through the (u, v) chart)
# ----------------------------------------------------------------------

def elliptic_cartesian(chart: Chart):
    """(d cosh q1 cos q2, d sinh q1 sin q2) of an elliptic chart point: its
    parabolic (xi, eta) on D_III, its horospherical (mu, nu) on D_IV."""
    return (chart.d * np.cosh(chart.q1) * np.cos(chart.q2),
            chart.d * np.sinh(chart.q1) * np.sin(chart.q2))


def _d3_to_uv(chart: Chart):
    name, q1, q2 = chart.name, chart.q1, chart.q2
    if name == "uv":
        return q1, q2
    if name == "polar":
        return 2.0 * math.log(2.0 / q1), 2.0 * q2
    if name == "parabolic":
        r2 = q1 ** 2 + q2 ** 2
        if r2 <= 0:
            raise DomainError("parabolic origin has no (u, v) image")
        return math.log(4.0 / r2), 2.0 * math.atan2(q2, q1)
    if name == "elliptic":
        return _d3_to_uv(Chart("parabolic", *elliptic_cartesian(chart)))
    raise UnsupportedError(f"no real (u, v) image for D_III chart {name!r}")


def _d3_from_uv(name: str, u: float, v: float, d: float):
    if name == "uv":
        return Chart("uv", u, v)
    rho = 2.0 * math.exp(-u / 2.0)
    if name == "polar":
        return Chart("polar", rho, v / 2.0)
    xi = rho * math.cos(v / 2.0)
    eta = rho * math.sin(v / 2.0)
    if name == "parabolic":
        return Chart("parabolic", xi, eta)
    if name == "elliptic":
        w = cmath.acos(complex(xi, eta) / d)
        phi, om = w.real, -w.imag
        if om < 0:
            om, phi = -om, -phi
        if om <= 0:
            raise DomainError("point lies on the focal segment of the elliptic chart")
        return Chart("elliptic", om, phi, d=d)
    raise UnsupportedError(f"no real map from (u, v) to D_III chart {name!r}")


def _d4_to_uv(chart: Chart):
    name, q1, q2 = chart.name, chart.q1, chart.q2
    if name == "uv":
        return q1, q2
    if name == "horospherical":
        return math.atan2(q2, q1), math.log(math.hypot(q1, q2) / 2.0)
    if name == "degelliptic2":
        z = np.tan(q2 - 1j * q1)
        return -np.angle(z), np.log(np.abs(z))
    if name == "elliptic":
        return _d4_to_uv(Chart("horospherical", *elliptic_cartesian(chart)))
    raise UnsupportedError(f"no real (u, v) image for D_IV chart {name!r}")


def _d4_from_uv(name: str, u: float, v: float, d: float):
    if name == "uv":
        return Chart("uv", u, v)
    if name == "horospherical":
        return Chart("horospherical", 2.0 * math.exp(v) * math.cos(u),
                      2.0 * math.exp(v) * math.sin(u))
    if name == "degelliptic2":
        w = cmath.atan(cmath.exp(complex(v, -u)))
        phi, om = w.real, -w.imag
        if om <= 0 or not 0 < phi < math.pi / 4:
            raise DomainError("(u, v) point outside degenerate elliptic II patch")
        return Chart("degelliptic2", om, phi)
    if name == "elliptic":
        mu = 2.0 * math.exp(v) * math.cos(u)
        nu = 2.0 * math.exp(v) * math.sin(u)
        w = cmath.acos(complex(mu, nu) / d)
        phi, om = w.real, -w.imag
        if om < 0:
            om, phi = -om, -phi
        if om <= 0 or not 0 < phi < math.pi / 2:
            raise DomainError("point lies outside the elliptic patch")
        return Chart("elliptic", om, phi, d=d)
    raise UnsupportedError(f"no real map from (u, v) to D_IV chart {name!r}")


def chart_transform(space: SpaceParams, chart: Chart, to_name: str) -> Chart:
    """Express the chart point in the chart named ``to_name``.

    All transforms route through (u, v).  The D_III hyperbolic chart and the
    D_IV degenerate elliptic I chart are complexified sections and support
    only the identity transform.  An array chart is mapped only by the
    identity and by D_IV degelliptic2 -> uv; other maps raise ParamError.
    """
    validate_chart(space, chart)
    if to_name not in CHARTS[space.family]:
        raise ParamError(f"chart {to_name!r} unknown for {space.family}")
    if to_name == chart.name:
        return chart
    fixed = ("hyperbolic", "degelliptic1")
    if chart.name in fixed or to_name in fixed:
        raise UnsupportedError(
            f"chart {chart.name!r} -> {to_name!r} has no real transform"
        )
    # only degelliptic2 -> (u, v) is written with numpy; the other maps use
    # math and cmath, whose values feed the classical flows
    if (np.ndim(chart.q1) or np.ndim(chart.q2)) and (
            (space.family, chart.name, to_name) != (DIV, "degelliptic2", "uv")):
        raise ParamError(f"chart map {chart.name!r} -> {to_name!r} on {space.family} "
                         "takes a single point, not an array")
    if space.family == DIII:
        u, v = _d3_to_uv(chart)
        out = _d3_from_uv(to_name, u, v, chart.d)
    else:
        u, v = _d4_to_uv(chart)
        out = _d4_from_uv(to_name, u, v, chart.d)
    validate_chart(space, out)
    return out
