import math

import numpy as np
import pytest

from darboux.errors import DomainError, ParamError, UnsupportedChartError
from darboux.geometry import DIII, DIV, Chart, SpaceParams, chart_transform
from darboux.potentials import PotentialSpec, potential_value, separated_problem
from darboux.spectra import QuantumNumbers

SP3 = SpaceParams(DIII, 1.0, 1.0)
SP4 = SpaceParams(DIV, 3.0, 1.0)


def test_coupling_validation():
    with pytest.raises(ParamError):
        PotentialSpec(SP3, "DIII_V5", {"k1": 1.0})
    with pytest.raises(ParamError):
        PotentialSpec(SP3, "DIII_V3", {"c1": 0.0, "c2": 1.0})
    with pytest.raises(ParamError):
        PotentialSpec(SP4, "DIII_V1", {})  # wrong space


@pytest.mark.parametrize("value", ["abc", None, [1.0], "1", True, np.True_, math.nan],
                         ids=["text", "none", "list", "numeral", "bool", "numpy-bool", "nan"])
def test_a_coupling_that_is_no_finite_number_is_a_param_error(value):
    # a coupling is a finite real number: anything else, a numeral string or a bool
    # included, is a ParamError rather than a ValueError or TypeError, or stored as given
    with pytest.raises(ParamError, match="couplings must be finite numbers"):
        PotentialSpec(SP3, "DIII_V5", {"v0": value})
    for number in (2, np.float64(0.5), np.int64(3)):
        assert PotentialSpec(SP3, "DIII_V5", {"v0": number}).c("v0") == float(number)


def test_v5_uv_example():
    spec = PotentialSpec(SP3, "DIII_V5", {"v0": 1.0})
    assert potential_value(spec, Chart("uv", 0.0, 0.3)) == pytest.approx(0.25)


def test_v1_parabolic_example():
    spec = PotentialSpec(SP3, "DIII_V1", {"k3": 2.0})
    assert potential_value(spec, Chart("parabolic", 0.0, 0.0)) == pytest.approx(2.0)


def test_v2_uv_matches_parabolic():
    spec = PotentialSpec(SpaceParams(DIII, 1.2, 0.9), "DIII_V2",
                         {"alpha": 0.7, "k1": 0.3, "k2": 0.6})
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = Chart("uv", rng.uniform(-0.5, 1.0), rng.uniform(0.3, 2.5))
        p = chart_transform(spec.space, c, "parabolic")
        assert potential_value(spec, c) == pytest.approx(potential_value(spec, p), rel=1e-10)


@pytest.mark.parametrize("family,coup,charts", [
    ("DIII_V1", {"k1": 0.4, "k2": 0.7, "k3": 1.1}, ("uv", "parabolic")),
    ("DIII_V2", {"alpha": 0.9, "k1": 0.3, "k2": 0.6}, ("uv", "polar", "parabolic", "elliptic")),
    ("DIII_V3", {"alpha": 0.5, "c1": 0.8, "c2": 0.6}, ("uv", "polar", "parabolic", "elliptic")),
    ("DIII_V5", {"v0": 1.2}, ("uv", "polar", "parabolic", "elliptic")),
])
def test_chart_invariance_diii(family, coup, charts):
    spec = PotentialSpec(SpaceParams(DIII, 1.3, 0.8), family, coup)
    rng = np.random.default_rng(3)
    for _ in range(8):
        base = Chart("uv", rng.uniform(-0.5, 1.0), rng.uniform(0.3, 2.4))
        ref = complex(potential_value(spec, base))
        for name in charts[1:]:
            c = chart_transform(spec.space, base, name)
            val = complex(potential_value(spec, c))
            assert abs(val - ref) <= 1e-10 * (1 + abs(ref))


def test_v5_hyperbolic_matches_uv():
    spec = PotentialSpec(SpaceParams(DIII, 1.3, 0.8), "DIII_V5", {"v0": 1.2})
    for mu, nu in [(2.0, 0.5), (3.0, 1.0)]:
        u = -math.log((mu - nu) / 2.0)
        got = potential_value(spec, Chart("hyperbolic", mu, nu))
        want = potential_value(spec, Chart("uv", u, 0.3))
        assert got == pytest.approx(want, rel=1e-12)


# charts[0] is the chart of the family's form
@pytest.mark.parametrize("family,coup,charts", [
    ("DIV_V1", {"alpha": 2.0, "k1": 0.3, "k2": 0.5, "omega": 1.0},
     ("uv", "horospherical", "elliptic", "degelliptic2")),
    ("DIV_V4", {"k0": 0.7}, ("uv", "horospherical", "elliptic", "degelliptic2")),
    ("DIV_V2", {"k1": 0.3, "k2": 0.5, "k3": 0.7}, ("uv", "degelliptic2", "horospherical", "elliptic")),
    ("DIV_V3", {"c1": 0.3, "c2": 0.2, "c3": 0.1}, ("degelliptic2", "uv", "horospherical", "elliptic")),
])
def test_chart_invariance_div(family, coup, charts):
    spec = PotentialSpec(SP4, family, coup)
    rng = np.random.default_rng(5)
    for _ in range(8):
        base = Chart("uv", rng.uniform(0.3, 1.2), rng.uniform(-1.0, 0.2))
        ref = potential_value(spec, chart_transform(spec.space, base, charts[0]))
        for name in charts[1:]:
            try:
                c = chart_transform(spec.space, base, name)
            except Exception:
                continue
            assert potential_value(spec, c) == pytest.approx(ref, rel=1e-10)


def test_unsupported_chart_errors():
    with pytest.raises(UnsupportedChartError):
        potential_value(PotentialSpec(SP3, "DIII_V4", {"d1": 1.0}), Chart("uv", 0.0, 0.0))
    with pytest.raises(UnsupportedChartError):
        potential_value(PotentialSpec(SP3, "DIII_V1", {}), Chart("hyperbolic", 2.0, 1.0))
    # a chart with no real map to the chart of the form, or a form chart with none
    for spec, chart in [
        (PotentialSpec(SP3, "DIII_V4", {"d1": 1.0}), Chart("polar", 0.7, 0.3)),
        (PotentialSpec(SP3, "DIII_V4", {"d1": 1.0}), Chart("parabolic", 0.7, 0.3)),
        (PotentialSpec(SP4, "DIV_V1", {"alpha": 2.0, "omega": 1.0}), Chart("degelliptic1", 0.5, 0.4)),
        (PotentialSpec(SP4, "DIV_V2", {"k1": 0.3, "k2": 0.5, "k3": 0.7}),
         Chart("degelliptic1", 0.5, 0.4)),
        (PotentialSpec(SP4, "DIV_V4", {"k0": 0.7}), Chart("degelliptic1", 0.5, 0.4)),
        (PotentialSpec(SP3, "DIII_V2", {"k1": 0.3}), Chart("hyperbolic", 2.0, 1.0)),
    ]:
        with pytest.raises(UnsupportedChartError):
            potential_value(spec, chart)
    with pytest.raises(UnsupportedChartError):
        separated_problem(PotentialSpec(SP3, "DIII_V1", {}), "polar",
                          QuantumNumbers(0, 0, "polar"))
    with pytest.raises(UnsupportedChartError):
        separated_problem(PotentialSpec(SP4, "DIV_V4", {"k0": 0.7}), "uv", QuantumNumbers(0, 0))


def test_v3_value_is_complex():
    spec = PotentialSpec(SP3, "DIII_V3", {"alpha": 0.3, "c1": 0.8, "c2": 0.5})
    val = potential_value(spec, Chart("uv", 0.2, 0.7))
    assert isinstance(val, complex) and abs(val.imag) > 0


def test_reality_other_families():
    rng = np.random.default_rng(8)
    for spec, chart in [
        (PotentialSpec(SP3, "DIII_V1", {"k1": 1.0, "k2": 0.5, "k3": 0.2}), Chart("parabolic", 0.4, 0.8)),
        (PotentialSpec(SP3, "DIII_V4", {"d1": 1.0, "d2": 0.5, "omega": 1.0}), Chart("hyperbolic", 2.0, 1.0)),
        (PotentialSpec(SP4, "DIV_V3", {"c1": 0.3, "c2": 0.2, "c3": 0.1}), Chart("degelliptic2", 0.5, 0.4)),
    ]:
        val = potential_value(spec, chart)
        assert abs(complex(val).imag) == 0.0


def test_separated_descriptor_v5_uv():
    spec = PotentialSpec(SP3, "DIII_V5", {"v0": 0.0})
    sep, angle = separated_problem(spec, "uv", QuantumNumbers(0, 1, "uv"))
    E = -4.5
    u = np.array([0.0])
    # profile has Morse form with E-dependent depth
    assert sep.profile(E)(u)[0] == pytest.approx(4.5 + 4.5)
    assert sep.lam_req(E) == pytest.approx(-0.5)
    # the angle is the plane wave e^{iv}: no profile, and the level hbar^2 l^2/2m
    v = np.linspace(0.1, 6.0, 7)
    assert np.all(angle.profile(E)(v) == 0.0)
    assert angle.lam_req(E) == pytest.approx(0.5, rel=1e-14)
    assert np.allclose(angle.factor(E)(v), np.exp(1j * v), rtol=0.0, atol=1e-15)
    assert angle.domain == (0.0, 2.0 * math.pi)


# generic couplings per family, and a patch of each chart away from every
# singular line of the potentials
COUPLINGS = {
    "DIII_V1": {"k1": 0.4, "k2": 0.7, "k3": 1.1},
    "DIII_V2": {"alpha": 0.9, "k1": 0.3, "k2": 0.6},
    "DIII_V3": {"alpha": 0.5, "c1": 0.8, "c2": 0.6},
    "DIII_V4": {"d1": 1.0, "d2": 0.5, "omega": 1.0},
    "DIII_V5": {"v0": 1.2},
    "DIV_V1": {"alpha": 2.0, "k1": 0.3, "k2": 0.5, "omega": 1.0},
    "DIV_V2": {"k1": 0.3, "k2": 0.5, "k3": 0.7},
    "DIV_V3": {"c1": 0.3, "c2": 0.2, "c3": 0.1},
    "DIV_V4": {"k0": 0.7},
}
PATCHES = {
    ("DIII", "uv"): ((-0.5, 1.0), (0.3, 2.4)),
    ("DIII", "polar"): ((0.4, 1.5), (0.2, 1.3)),
    ("DIII", "parabolic"): ((0.3, 1.5), (0.3, 1.5)),
    ("DIII", "elliptic"): ((0.3, 1.2), (0.2, 1.3)),
    ("DIII", "hyperbolic"): ((1.5, 3.0), (0.3, 1.2)),
    ("DIV", "uv"): ((0.3, 1.2), (0.2, 1.0)),
    ("DIV", "horospherical"): ((0.3, 1.5), (0.3, 1.5)),
    ("DIV", "degelliptic1"): ((0.3, 1.2), (0.2, 1.3)),
    ("DIV", "degelliptic2"): ((0.3, 1.2), (0.1, 0.7)),
    ("DIV", "elliptic"): ((0.3, 1.2), (0.2, 1.3)),
}


def test_array_chart_matches_points_bitwise():
    pairs = 0
    for family, coup in COUPLINGS.items():
        sp = SpaceParams(DIII, 1.3, 0.8) if family.startswith("DIII") else SP4
        spec = PotentialSpec(sp, family, coup)
        for (space, name), (r1, r2) in PATCHES.items():
            if space != sp.family:
                continue
            q1, q2 = np.linspace(*r1, 11), np.linspace(*r2, 9)
            try:
                grid = potential_value(spec, Chart(name, q1[:, None], q2[None, :]))
            except UnsupportedChartError:
                continue
            points = [[potential_value(spec, Chart(name, float(x), float(y))) for y in q2]
                      for x in q1]
            # a value independent of one coordinate broadcasts along it
            assert np.array_equal(np.broadcast_to(grid, (11, 9)), points), (family, name)
            pairs += 1
    assert pairs == 36


# the polar and elliptic points map to eta = 0 exactly in the parabolic
# chart of the form
@pytest.mark.parametrize("chart", [Chart("uv", 0.3, 0.0), Chart("parabolic", 0.0, 0.8),
                                   Chart("uv", np.array([0.3, 0.4]), np.array([0.5, 0.0])),
                                   Chart("polar", 0.7, 0.0), Chart("elliptic", 0.6, 0.0)])
def test_singular_point_is_a_domain_error(chart):
    spec = PotentialSpec(SP3, "DIII_V2", {"alpha": 0.3, "k1": 0.3, "k2": 0.7})
    with pytest.raises(DomainError, match="singular"):
        potential_value(spec, chart)
