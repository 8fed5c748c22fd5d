import math

import numpy as np
import pytest

from darboux.errors import DomainError, ParamError, UnsupportedError
from darboux.geometry import (
    DIII,
    DIV,
    Chart,
    SpaceParams,
    chart_transform,
    curvature_closed,
    curvature_numeric,
    metric_diag,
    validate_chart,
)


def test_space_params_validation():
    with pytest.raises(ParamError):
        SpaceParams(DIII, -1.0, 1.0)
    with pytest.raises(ParamError):
        SpaceParams(DIV, 1.0, 1.0)  # needs a >= 2b
    sp = SpaceParams(DIV, 3.0, 1.0)
    assert sp.a_plus == pytest.approx(1.25)
    assert sp.a_minus == pytest.approx(0.25)
    # hyperboloid limit a = 2b is allowed
    SpaceParams(DIV, 2.0, 1.0)


def test_metric_examples():
    assert metric_diag(SpaceParams(DIII, 1, 1), Chart("uv", 0.0, 0.0)) == (2.0, 2.0)
    g = metric_diag(SpaceParams(DIII, 1, 4), Chart("polar", 1.0, 0.2))
    assert g == (pytest.approx(2.0), pytest.approx(2.0))
    g = metric_diag(SpaceParams(DIV, 4, 0), Chart("uv", math.pi / 4, 0.0))
    assert g == (pytest.approx(4.0), pytest.approx(4.0))


def test_hyperbolic_metric_signed():
    sp = SpaceParams(DIII, 1.0, 1.0)
    g11, g22 = metric_diag(sp, Chart("hyperbolic", 2.0, 1.0))
    f = (1.0 + 0.5 * (2.0 - 1.0)) * 3.0
    assert g11 == pytest.approx(f / 4.0)
    assert g22 == pytest.approx(-f / 1.0)
    with pytest.raises(DomainError):
        metric_diag(sp, Chart("hyperbolic", 0.5, 4.0))  # a + b(mu-nu)/2 < 0


def test_positive_definite_conformal_charts():
    rng = np.random.default_rng(0)
    for fam in (DIII, DIV):
        for _ in range(5):
            if fam == DIII:
                sp = SpaceParams(fam, rng.uniform(0.5, 2), rng.uniform(0.5, 2))
                charts = [Chart("uv", rng.uniform(-1, 1), rng.uniform(0, 2)),
                          Chart("parabolic", rng.uniform(0.2, 2), rng.uniform(0.2, 2)),
                          Chart("elliptic", rng.uniform(0.2, 1.5), rng.uniform(0.1, 1.4))]
            else:
                b = rng.uniform(0.3, 1.0)
                sp = SpaceParams(fam, 2 * b + rng.uniform(0.1, 1), b)
                charts = [Chart("uv", rng.uniform(0.2, 1.3), rng.uniform(-1, 1)),
                          Chart("horospherical", rng.uniform(0.2, 2), rng.uniform(0.2, 2)),
                          Chart("degelliptic2", rng.uniform(0.2, 1.2), rng.uniform(0.1, 0.7))]
            for c in charts:
                g11, g22 = metric_diag(sp, c)
                assert g11 > 0 and g22 > 0


def test_curvature_consistency_random():
    rng = np.random.default_rng(1)
    for fam in (DIII, DIV):
        for _ in range(5):
            if fam == DIII:
                sp = SpaceParams(fam, rng.uniform(0.5, 3), rng.uniform(0.5, 3))
                us = np.linspace(-1.2, 1.2, 10)
            else:
                b = rng.uniform(0.3, 1.5)
                sp = SpaceParams(fam, 2 * b + rng.uniform(0.05, 2), b)
                us = np.linspace(0.15, math.pi / 2 - 0.15, 10)
            for u in us:
                for v in np.linspace(0, 1, 10):
                    gn = curvature_numeric(sp, Chart("uv", float(u), float(v)))
                    gc = curvature_closed(sp, (float(u), 0.0))
                    assert abs(gn - gc) / (1 + abs(gc)) < 1e-6


def test_flat_and_hyperboloid_limits():
    sp = SpaceParams(DIII, 1.0, 0.0)
    for u in np.linspace(-1, 1, 20):
        assert abs(curvature_numeric(sp, Chart("uv", float(u), 0.3))) < 1e-8
    sp = SpaceParams(DIV, 2.0, 1.0)
    for u in np.linspace(0.2, 1.3, 20):
        assert curvature_numeric(sp, Chart("uv", float(u), -0.2)) == pytest.approx(-1.0, abs=1e-8)
        assert curvature_closed(sp, (float(u), 0.0)) == pytest.approx(-1.0, abs=1e-12)


def test_curvature_closed_examples():
    assert curvature_closed(SpaceParams(DIII, 1, 0), (0.4, 0)) == 0.0
    assert curvature_closed(SpaceParams(DIII, 1, 1), (0.0, 0)) == pytest.approx(-1 / 16)


def test_curvature_closed_forms_exact():
    # sympy proves that the closed forms of curvature_closed equal
    # G = -(1/2f) d^2/du^2 ln f for the v-independent factor f of each surface,
    # then the code is checked against the proven expressions
    import sympy

    u = sympy.symbols("u", real=True)
    a, b, ap, am = sympy.symbols("a b a_p a_m", positive=True)
    s2, c2 = sympy.sin(u) ** 2, sympy.cos(u) ** 2
    surfaces = {
        DIII: (a * sympy.exp(-u) + b * sympy.exp(-2 * u),
               lambda f: -a * b * sympy.exp(-3 * u) / (2 * f ** 3),
               ((1.0, 1.0), (3.0, 1.0), (0.6, 2.2)), np.linspace(-1.2, 1.2, 7)),
        DIV: (ap / s2 + am / c2,
              lambda f: -(ap ** 2 / s2 ** 3 + am ** 2 / c2 ** 3
                          + 3 * ap * am / (s2 ** 2 * c2 ** 2)) / f ** 3,
              ((2.0, 1.0), (3.0, 1.0), (2.5, 0.4)), np.linspace(0.15, 1.4, 7)),
    }
    for fam, (f, closed, params, us) in surfaces.items():
        curv = closed(f)
        assert sympy.simplify(curv + sympy.diff(sympy.log(f), u, 2) / (2 * f)) == 0
        curv_at = sympy.lambdify((u, a, b, ap, am), curv)
        for aa, bb in params:
            sp = SpaceParams(fam, aa, bb)
            for uu in us:
                ref = curv_at(uu, aa, bb, (aa + 2 * bb) / 4, (aa - 2 * bb) / 4)
                assert curvature_closed(sp, (float(uu), 0.0)) == pytest.approx(ref, rel=1e-13)


def test_chart_roundtrips():
    sp3 = SpaceParams(DIII, 1.3, 0.7)
    cases3 = [Chart("polar", 1.2, 0.8), Chart("parabolic", 0.5, 1.1),
              Chart("elliptic", 0.7, 0.9), Chart("uv", 0.2, 1.0)]
    for c in cases3:
        back = chart_transform(sp3, chart_transform(sp3, c, "uv"), c.name)
        assert abs(back.q1 - c.q1) < 1e-10 and abs(back.q2 - c.q2) < 1e-10
    sp4 = SpaceParams(DIV, 3.0, 1.0)
    cases4 = [Chart("horospherical", 1.2, 0.8), Chart("degelliptic2", 0.7, 0.5),
              Chart("elliptic", 0.7, 0.9), Chart("uv", 0.6, -0.4)]
    for c in cases4:
        back = chart_transform(sp4, chart_transform(sp4, c, "uv"), c.name)
        assert abs(back.q1 - c.q1) < 1e-10 and abs(back.q2 - c.q2) < 1e-10


def test_transform_examples():
    sp = SpaceParams(DIII, 1.0, 1.0)
    c = chart_transform(sp, Chart("parabolic", 2.0, 1e-13), "uv")
    assert c.q1 == pytest.approx(0.0, abs=1e-12)
    c = chart_transform(sp, Chart("polar", 2.0, 0.0), "parabolic")
    assert (c.q1, c.q2) == (pytest.approx(2.0), pytest.approx(0.0))
    same = chart_transform(sp, Chart("polar", 1.5, 0.3), "polar")
    assert (same.q1, same.q2) == (1.5, 0.3)


def test_hyperbolic_transform_unsupported():
    sp = SpaceParams(DIII, 1.0, 1.0)
    with pytest.raises(UnsupportedError):
        chart_transform(sp, Chart("hyperbolic", 2.0, 1.0), "uv")
    assert chart_transform(sp, Chart("hyperbolic", 2.0, 1.0), "hyperbolic").q1 == 2.0


def test_scalar_invariance_across_charts():
    sp3 = SpaceParams(DIII, 1.3, 0.7)
    base = Chart("uv", 0.4, 0.9)
    ref = curvature_numeric(sp3, base)
    for other in ("parabolic", "elliptic"):
        c = chart_transform(sp3, base, other)
        assert abs(curvature_numeric(sp3, c, 1e-4) - ref) < 1e-5
    sp4 = SpaceParams(DIV, 3.0, 1.0)
    base = Chart("uv", 0.5, -0.3)
    ref = curvature_numeric(sp4, base)
    for other in ("horospherical", "degelliptic2", "elliptic"):
        c = chart_transform(sp4, base, other)
        assert abs(curvature_numeric(sp4, c, 1e-4) - ref) < 1e-5


def test_curvature_domain_errors():
    sp = SpaceParams(DIV, 3.0, 1.0)
    with pytest.raises(DomainError):
        curvature_numeric(sp, Chart("uv", 1e-5, 0.0))  # stencil leaves the domain
    with pytest.raises(DomainError):
        curvature_numeric(SpaceParams(DIII, 1, 1), Chart("polar", 1.0, 0.0))  # not conformal


@pytest.mark.parametrize("space, name, q1, q2", [
    (SpaceParams(DIII, 1.0, 1.0), "polar", [0.5, 1.0, 0.0], [0.1, 0.2, 0.3]),
    (SpaceParams(DIII, 1.0, 1.0), "hyperbolic", [2.0, 2.0, 0.5], [1.0, 1.0, 4.0]),
    (SpaceParams(DIV, 3.0, 1.0), "uv", [0.2, 0.4, math.pi / 2], [0.0, 0.0, 0.0]),
    (SpaceParams(DIV, 3.0, 1.0), "degelliptic2", [0.5, 0.5, 0.5], [0.2, 0.3, 0.8]),
])
def test_validate_chart_checks_every_point(space, name, q1, q2):
    # the last point of each list lies outside the chart domain
    validate_chart(space, Chart(name, np.array(q1[:2]), np.array(q2[:2])))
    with pytest.raises(DomainError):
        validate_chart(space, Chart(name, np.array(q1), np.array(q2)))


@pytest.mark.parametrize("space, u_range", [
    (SpaceParams(DIV, 2.0, 1.0), (0.1 * math.pi / 2, 0.9 * math.pi / 2)),
    (SpaceParams(DIII, 1.3, 0.7), (-1.0, 1.0)),
])
def test_curvature_numeric_grid_matches_points_bitwise(space, u_range):
    # the 50x50 maps of the curvature command
    us, vs = np.linspace(*u_range, 50), np.linspace(0.0, 1.0, 50)
    grid = curvature_numeric(space, Chart("uv", *np.meshgrid(us, vs, indexing="ij")))
    points = np.array([[curvature_numeric(space, Chart("uv", float(u), float(v))) for v in vs]
                       for u in us])
    assert grid.shape == (50, 50)
    assert grid.tobytes() == points.tobytes()


def test_curvature_numeric_grid_domain_error():
    # one point of the grid is inside the chart, but its stencil is not
    us = np.array([1e-5, 0.3, 0.6])
    with pytest.raises(DomainError):
        curvature_numeric(SpaceParams(DIV, 3.0, 1.0), Chart("uv", us[:, None], np.zeros((1, 2))))
    curvature_numeric(SpaceParams(DIV, 3.0, 1.0), Chart("uv", us[1:, None], np.zeros((1, 2))))


@pytest.mark.parametrize("space, chart, to_name", [
    (SpaceParams(DIII, 1.0, 1.0), Chart("polar", np.array([1.0, 1.2]), np.array([0.3, 0.4])), "uv"),
    (SpaceParams(DIII, 1.0, 1.0), Chart("uv", np.array([0.1, 0.2]), 0.3), "parabolic"),
    (SpaceParams(DIV, 3.0, 1.0), Chart("uv", np.array([0.4, 0.5]), np.array([0.1, 0.2])),
     "degelliptic2"),
    (SpaceParams(DIV, 3.0, 1.0), Chart("elliptic", 0.7, np.array([0.8, 0.9])), "uv"),
])
def test_chart_transform_array_needs_a_numpy_map(space, chart, to_name):
    with pytest.raises(ParamError, match=f"'{chart.name}' -> '{to_name}'"):
        chart_transform(space, chart, to_name)

