import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux.errors import DomainError, ParamError, UnsupportedError
from darboux.geometry import (
    CHARTS,
    DIII,
    DIV,
    Chart,
    SpaceParams,
    chart_transform,
    curvature_closed,
    curvature_numeric,
    d3_factor,
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
    (SpaceParams(DIV, 3.0, 1.0), "degelliptic2", [0.5, 0.5, 0.5], [0.2, 0.8, 1.6]),
])
def test_validate_chart_checks_every_point(space, name, q1, q2):
    # the last point of each list lies outside the chart domain
    validate_chart(space, Chart(name, np.array(q1[:2]), np.array(q2[:2])))
    with pytest.raises(DomainError):
        validate_chart(space, Chart(name, np.array(q1), np.array(q2)))


def test_validate_chart_refuses_lists_where_a_domain_rule_compares():
    for space in (SpaceParams(DIII, 1.0, 1.0), SpaceParams(DIV, 3.0, 1.0)):
        for name, row in CHARTS[space.family].items():
            if row.outside is not None:
                with pytest.raises(ParamError):
                    validate_chart(space, Chart(name, [0.5, 0.7], [0.5, 0.7]))


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


def _curvature_reference(space, chart, step=1e-3):
    """The stencil of curvature_numeric written term by term: each 5-point
    Laplacian summed neighbour by neighbour, on a 9-point stencil."""
    h, k = step, step / 2.0
    d1 = np.array([0.0, h, -h, 0.0, 0.0, k, -k, 0.0, 0.0])
    f = CHARTS[space.family][chart.name].factor(space, np.asarray(chart.q1)[..., None] + d1,
                                                np.asarray(chart.q2)[..., None] + np.roll(d1, 2),
                                                chart.d)
    vals, f0 = np.log(f), f[..., 0]

    def lap(i, dq):
        return (vals[..., i] + vals[..., i + 1] + vals[..., i + 2] + vals[..., i + 3]
                - 4.0 * vals[..., 0]) / dq ** 2

    return (4.0 * (-lap(5, k) / (2.0 * f0)) - (-lap(1, h) / (2.0 * f0))) / 3.0


@pytest.mark.parametrize("family", [DIII, DIV])
def test_curvature_numeric_matches_its_reference_bitwise(family):
    # curvature_numeric sums both Laplacians with np.add.accumulate and
    # negated weights; the bits must be those of the plain sums
    rng = np.random.default_rng(41)
    for _ in range(200):
        if family == DIII:
            sp = SpaceParams(DIII, float(rng.uniform(0.2, 3)), float(rng.uniform(0, 3)))
            u = float(rng.uniform(-3, 3))
        else:
            b = float(rng.uniform(0.1, 2))
            sp = SpaceParams(DIV, 2 * b + float(rng.uniform(0, 2)), b)
            u = float(rng.uniform(0.02, 1.55))
        pt = Chart("uv", u, float(rng.uniform(-5, 5)))
        step = float(10 ** rng.uniform(-4, -2))
        assert curvature_numeric(sp, pt, step).tobytes() == _curvature_reference(sp, pt, step).tobytes()
    grid = Chart("uv", *np.meshgrid(np.linspace(0.2, 1.3, 7), np.linspace(0, 1, 5), indexing="ij"))
    sp = SpaceParams(DIV, 3.0, 1.0) if family == DIV else SpaceParams(DIII, 1.3, 0.7)
    assert curvature_numeric(sp, grid).tobytes() == _curvature_reference(sp, grid).tobytes()


def test_curvature_numeric_grid_domain_error():
    # one point of the grid is inside the chart, but its stencil is not
    us = np.array([1e-5, 0.3, 0.6])
    with pytest.raises(DomainError):
        curvature_numeric(SpaceParams(DIV, 3.0, 1.0), Chart("uv", us[:, None], np.zeros((1, 2))))
    curvature_numeric(SpaceParams(DIV, 3.0, 1.0), Chart("uv", us[1:, None], np.zeros((1, 2))))


def test_degelliptic2_covers_the_uv_surface():
    # tan(phi - i omega) = e^{v - iu} maps 0 < phi < pi/2, omega > 0 onto
    # the whole (u, v) surface, half of it at phi > pi/4
    sp = SpaceParams(DIV, 3.0, 1.0)
    rng = np.random.default_rng(4)
    us, vs = rng.uniform(0.01, math.pi / 2 - 0.01, 200), rng.uniform(-4.0, 4.0, 200)
    pts = [chart_transform(sp, Chart("uv", u, v), "degelliptic2") for u, v in zip(us, vs)]
    phi = np.array([c.q2 for c in pts])
    assert 40 < np.count_nonzero(phi > math.pi / 4) < 160
    back = chart_transform(sp, Chart("degelliptic2", np.array([c.q1 for c in pts]), phi), "uv")
    assert np.abs(back.q1 - us).max() < 1e-12 and np.abs(back.q2 - vs).max() < 1e-12


# a box inside each domain for every chart with real maps, clear of the
# elliptic focal points and the parabolic origin, where the inverses lose digits
REAL_MAP_BOXES = {
    (DIII, "uv"): ((-2.0, 2.0), (-6.0, 6.0)),
    (DIII, "polar"): ((0.1, 5.0), (-6.0, 6.0)),
    (DIII, "parabolic"): ((-3.0, 3.0), (-3.0, 3.0)),
    (DIII, "elliptic"): ((0.05, 2.0), (-3.0, 3.0)),
    (DIV, "uv"): ((0.05, math.pi / 2 - 0.05), (-3.0, 3.0)),
    (DIV, "horospherical"): ((0.05, 5.0), (0.05, 5.0)),
    (DIV, "degelliptic2"): ((0.05, 3.0), (0.05, math.pi / 2 - 0.05)),
    (DIV, "elliptic"): ((0.05, 2.0), (0.05, math.pi / 2 - 0.05)),
}
MAP_SPACES = {DIII: SpaceParams(DIII, 1.3, 0.7), DIV: SpaceParams(DIV, 3.0, 1.0)}


def test_real_map_boxes_cover_every_real_chart():
    real = {(fam, name) for fam, rows in CHARTS.items() for name, row in rows.items()
            if row.to_uv is not None and row.from_uv is not None}
    assert real == set(REAL_MAP_BOXES)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.sampled_from(sorted(REAL_MAP_BOXES)), st.floats(0.5, 2.0), st.data())
def test_chart_maps_round_trip_and_take_arrays(key, d, data):
    fam, name = key
    (lo1, hi1), (lo2, hi2) = REAL_MAP_BOXES[key]
    points = st.tuples(st.floats(lo1, hi1), st.floats(lo2, hi2))
    if name == "parabolic":
        points = points.filter(lambda p: p[0] ** 2 + p[1] ** 2 > 0.01)
    pts = data.draw(st.lists(points, min_size=1, max_size=6))
    sp = MAP_SPACES[fam]
    for q1, q2 in pts:
        back = chart_transform(sp, chart_transform(sp, Chart(name, q1, q2, d), "uv"), name)
        assert abs(back.q1 - q1) < 1e-10 and abs(back.q2 - q2) < 1e-10
    # an array of points maps to the same bits as the points one by one
    q1s, q2s = np.array(pts).T
    for to_fam, to_name in REAL_MAP_BOXES:
        if to_fam != fam:
            continue
        try:
            one = [chart_transform(sp, Chart(name, q1, q2, d), to_name) for q1, q2 in pts]
        except DomainError:  # a point on the focal segment of an elliptic target
            with pytest.raises(DomainError):
                chart_transform(sp, Chart(name, q1s, q2s, d), to_name)
            continue
        grid = chart_transform(sp, Chart(name, q1s, q2s, d), to_name)
        assert all(type(c.q1) is float and type(c.q2) is float for c in one)
        assert grid.q1.tobytes() == np.array([c.q1 for c in one]).tobytes()
        assert grid.q2.tobytes() == np.array([c.q2 for c in one]).tobytes()


def test_d3_factor_only_in_the_charts_of_potential_forms():
    # the factor that D_III potential forms divide by; a chart without one
    # raises rather than give its metric factor (0.756 against 1.508 here)
    sp = SpaceParams(DIII, 1.3, 0.8)
    for name in ("polar", "elliptic"):
        with pytest.raises(UnsupportedError):
            d3_factor(sp, Chart(name, 0.5, 0.5))
    with pytest.raises(UnsupportedError):
        d3_factor(SpaceParams(DIV, 3.0, 1.0), Chart("uv", 0.5, 0.5))
    u, v = 0.3, 1.1
    assert d3_factor(sp, Chart("uv", u, v)) == sp.a + sp.b * np.exp(-u)
    # a + b(xi^2 + eta^2)/4 at the parabolic image of the uv point
    par = chart_transform(sp, Chart("uv", u, v), "parabolic")
    assert d3_factor(sp, par) == pytest.approx(sp.a + sp.b * math.exp(-u), rel=1e-14)
    assert d3_factor(sp, Chart("hyperbolic", 1.4, 0.6)) == sp.a + 0.5 * sp.b * (1.4 - 0.6)
