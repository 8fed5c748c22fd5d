import math

import numpy as np
import pytest

from darboux.classical import (
    TOL_FLOOR,
    BlowupError,
    PhaseState,
    algebra_check,
    drift,
    hamiltonian_flow,
    hamiltonian_value,
    observable_value,
    poisson_bracket_fd,
    residual_constant,
    transform_state,
)
from darboux.errors import ParamError
from darboux.geometry import DIII, DIV, Chart, SpaceParams
from darboux.potentials import PotentialSpec

SP1 = SpaceParams(DIII, 1.0, 1.0)
SP4 = SpaceParams(DIV, 3.0, 1.0)


def test_k_is_pv():
    st = PhaseState(Chart("uv", 0.3, 0.4), 1.1, 2.2)
    assert observable_value(SP1, "K", st) == 2.2


def test_x2_at_v_zero():
    # at v = 0 the quadratic parts drop out of X2, leaving the cross term
    st = PhaseState(Chart("uv", 0.5, 0.0), 1.3, 0.8)
    al = SP1.a ** 2 / (4 * SP1.b)
    c = 2 * al * math.exp(0.5) / SP1.a
    assert observable_value(SP1, "X2", st) == pytest.approx(c * 1.3 * 0.8)


def test_div_x1_pu_zero():
    # with p_u = 0 the D_IV X1 reduces to its p_v^2 coefficient
    st = PhaseState(Chart("uv", 0.7, 0.3), 0.0, 1.4)
    val = observable_value(SP4, "X1", st)
    from darboux.classical import _d4_coeffs

    _, D, _ = _d4_coeffs(SP4, 0.7)
    assert val == pytest.approx(math.exp(-0.6) * D * 1.4 ** 2)


def test_bracket_antisymmetry_and_leibniz():
    rng = np.random.default_rng(3)
    st = PhaseState(Chart("uv", 0.4, 1.2), 0.9, -0.7)
    assert abs(poisson_bracket_fd(SP1, "K", "K", st)) < 1e-10
    b12 = poisson_bracket_fd(SP1, "X1", "X2", st)
    b21 = poisson_bracket_fd(SP1, "X2", "X1", st)
    assert b12 == pytest.approx(-b21, abs=1e-6)
    # Leibniz: {K, X1 * X2} = {K, X1} X2 + X1 {K, X2}
    prod = lambda s: observable_value(SP1, "X1", s) * observable_value(SP1, "X2", s)
    lhs = poisson_bracket_fd(SP1, "K", prod, st)
    rhs = (poisson_bracket_fd(SP1, "K", "X1", st) * observable_value(SP1, "X2", st)
           + observable_value(SP1, "X1", st) * poisson_bracket_fd(SP1, "K", "X2", st))
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_algebra_random_states():
    rng = np.random.default_rng(11)
    for _ in range(100):
        sp = SpaceParams(DIII, float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))
        st = PhaseState(Chart("uv", float(rng.uniform(-1, 1)), float(rng.uniform(0, 6))),
                        float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        res = algebra_check(sp, st)
        assert abs(res["functional"]) < 1e-10
        b = float(rng.uniform(0.3, 1.2))
        sp4 = SpaceParams(DIV, 2 * b + float(rng.uniform(0.1, 1.5)), b)
        st = PhaseState(Chart("uv", float(rng.uniform(0.25, 1.3)), float(rng.uniform(-1, 1))),
                        float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        res = algebra_check(sp4, st)
        assert abs(res["functional"]) < 1e-10


def test_poisson_relations_random_states():
    rng = np.random.default_rng(13)
    for _ in range(25):
        sp = SpaceParams(DIII, float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))
        st = PhaseState(Chart("uv", float(rng.uniform(-1, 1)), float(rng.uniform(0, 6))),
                        float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        res = algebra_check(sp, st)
        for k, v in res.items():
            if k.startswith("bracket"):
                assert abs(v) < 1e-6
        b = float(rng.uniform(0.3, 1.2))
        sp4 = SpaceParams(DIV, 2 * b + float(rng.uniform(0.1, 1.5)), b)
        st = PhaseState(Chart("uv", float(rng.uniform(0.25, 1.3)), float(rng.uniform(-1, 1))),
                        float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        res = algebra_check(sp4, st)
        for k, v in res.items():
            if k.startswith("bracket"):
                assert abs(v) < 1e-6


def test_free_flow_conservation():
    sp = SpaceParams(DIII, 1.2, 0.8)
    st0 = PhaseState(Chart("uv", 0.3, 1.0), 0.7, -0.4)
    _, traj = hamiltonian_flow(sp, None, st0, 10.0, tol=1e-11)
    for obs in ("H0", "X1", "X2", "K"):
        assert drift([observable_value(sp, obs, s) for s in traj]) < 1e-6
    st0 = PhaseState(Chart("uv", 0.7, 0.2), 0.5, 0.3)
    _, traj = hamiltonian_flow(SP4, None, st0, 10.0, tol=1e-11)
    for obs in ("H0", "X1", "X2", "K"):
        assert drift([observable_value(SP4, obs, s) for s in traj]) < 1e-6


def test_v5_flow_conserves_k_and_constants():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 1.3})
    st0 = PhaseState(Chart("uv", 0.2, 0.8), 0.6, 0.5)
    _, traj = hamiltonian_flow(SP1, spec, st0, 10.0, tol=1e-11)
    assert drift([hamiltonian_value(SP1, spec, s) for s in traj]) < 1e-8
    assert drift([s.p2 for s in traj]) < 1e-12
    for name in ("R1", "R2", "R3"):
        assert drift([residual_constant(spec, name, s) for s in traj]) < 1e-5


def test_div_v4_radial_constant():
    spec = PotentialSpec(SP4, "DIV_V4", {"k0": 0.8})
    st0 = PhaseState(Chart("horospherical", 1.2, 0.9), 0.3, -0.5)
    _, traj = hamiltonian_flow(SP4, spec, st0, 8.0, tol=1e-11)
    assert drift([residual_constant(spec, "R3", s) for s in traj]) < 1e-5


def test_chart_covariance_of_h():
    sp = SpaceParams(DIII, 1.3, 0.7)
    st = PhaseState(Chart("uv", 0.4, 1.1), 0.7, -0.2)
    ref = hamiltonian_value(sp, None, st)
    for other in ("polar", "parabolic", "elliptic"):
        st2 = transform_state(sp, st, other)
        assert hamiltonian_value(sp, None, st2) == pytest.approx(ref, abs=1e-8)
    st = PhaseState(Chart("uv", 0.5, -0.2), 0.4, 0.9)
    ref = hamiltonian_value(SP4, None, st)
    for other in ("horospherical", "degelliptic2"):
        st2 = transform_state(SP4, st, other)
        assert hamiltonian_value(SP4, None, st2) == pytest.approx(ref, abs=1e-8)


def test_flow_blowup_detection():
    # a radial D_III trajectory through the polar coordinate center leaves
    # the chart domain rho > 0
    st0 = PhaseState(Chart("polar", 1.0, 0.3), -2.0, 0.0)
    with pytest.raises(BlowupError):
        hamiltonian_flow(SP1, None, st0, 10.0, tol=1e-9)


def test_flow_call_budget_is_capped_whatever_t_final(monkeypatch):
    # RHS_CALLS_PER_TIME t_final grows without bound; MAX_RHS_CALLS caps it.  A
    # free t = 100 flow takes about 530 calls and a t = 1 flow about 60, so a
    # cap of 300 stops the first and not the second
    from darboux import classical

    sp = SpaceParams(DIII, 1.2, 0.8)
    st0 = PhaseState(Chart("uv", 0.3, 1.0), 0.7, -0.4)
    monkeypatch.setattr(classical, "MAX_RHS_CALLS", 300)
    with pytest.raises(BlowupError, match="more than 300 right-hand-side calls"):
        hamiltonian_flow(sp, None, st0, 100.0, tol=1e-9)
    hamiltonian_flow(sp, None, st0, 1.0, tol=1e-9)


def _random_states(rng, name, lo1, hi1, lo2, hi2, n=40):
    return PhaseState(Chart(name, rng.uniform(lo1, hi1, n), rng.uniform(lo2, hi2, n)),
                      rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))


@pytest.mark.parametrize("space, spec, name, box", [
    (SP1, None, "uv", (-1, 1, 0, 6)),
    (SP1, None, "polar", (0.2, 2, 0, 3)),
    (SP1, PotentialSpec(SP1, "DIII_V5", {"v0": 1.3}), "uv", (-1, 1, 0, 6)),
    (SP1, PotentialSpec(SP1, "DIII_V5", {"v0": 1.3}), "parabolic", (0.1, 2, 0.1, 2)),
    (SP4, None, "uv", (0.25, 1.3, -1, 1)),
    (SP4, None, "horospherical", (0.2, 2, 0.2, 2)),
    (SP4, PotentialSpec(SP4, "DIV_V1", {"alpha": 0.4, "k1": 0.7, "k2": 1.1, "omega": 0.5}),
     "uv", (0.25, 1.3, -1, 1)),
    (SP4, PotentialSpec(SP4, "DIV_V1", {"alpha": 0.4, "k1": 0.7, "k2": 1.1, "omega": 0.5}),
     "horospherical", (0.2, 2, 0.2, 2)),
], ids=["DIII-free-uv", "DIII-free-polar", "DIII_V5-uv", "DIII_V5-parabolic",
        "DIV-free-uv", "DIV-free-horospherical", "DIV_V1-uv", "DIV_V1-horospherical"])
def test_hamiltonian_value_array_matches_scalar_bitwise(space, spec, name, box):
    # the flow differentiates H evaluated as an array; a single state must get
    # exactly the same value, so that a flow and its records agree
    sts = _random_states(np.random.default_rng(17), name, *box)
    vals = hamiltonian_value(space, spec, sts)
    assert vals.shape == (40,)
    for i, v in enumerate(vals):
        st = PhaseState(Chart(name, float(sts.chart.q1[i]), float(sts.chart.q2[i])),
                        float(sts.p1[i]), float(sts.p2[i]))
        single = hamiltonian_value(space, spec, st)
        assert isinstance(single, float)
        assert single == v, (i, single, v)


def test_hamiltonian_value_takes_list_coordinates():
    # a state of lists is an array of states, as PhaseState reads it, and
    # gives the values of the same state in arrays
    lists = PhaseState(Chart("uv", [0.1, 0.2], [0.3, 0.4]), [1.0, 2.0], [3.0, 4.0])
    arrays = PhaseState(Chart("uv", np.array([0.1, 0.2]), np.array([0.3, 0.4])),
                        np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    vals = hamiltonian_value(SP1, None, lists)
    assert vals.tobytes() == hamiltonian_value(SP1, None, arrays).tobytes()


@pytest.mark.parametrize("sp", [SP1, SP4], ids=[DIII, DIV])
def test_observable_value_takes_list_coordinates(sp):
    # the observables read a state of lists as hamiltonian_value does: as the
    # same states in float arrays, K included
    lists = PhaseState(Chart("uv", [0.6, 0.7], [0.3, 0.4]), [1.0, 2.0], [3.0, 4.0])
    arrays = PhaseState(Chart("uv", np.array([0.6, 0.7]), np.array([0.3, 0.4])),
                        np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    for obs in ("H0", "X1", "X2", "K"):
        vals = observable_value(sp, obs, lists)
        assert isinstance(vals, np.ndarray), obs
        assert vals.tobytes() == observable_value(sp, obs, arrays).tobytes(), obs


@pytest.mark.parametrize("family", [DIII, DIV])
def test_observable_value_array_matches_scalar_bitwise(family):
    # a bracket and the CLI records evaluate the observables as arrays, a
    # single state as numpy scalars: both must give the same bits
    rng = np.random.default_rng(25)
    for _ in range(3):  # the spaces and states of acceptance criterion 8
        if family == DIII:
            sp = SpaceParams(DIII, float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))
            sts = _random_states(rng, "uv", -1, 1, 0, 6, n=200)
        else:
            b = float(rng.uniform(0.3, 1.2))
            sp = SpaceParams(DIV, 2 * b + float(rng.uniform(0.1, 1.5)), b)
            sts = _random_states(rng, "uv", 0.25, 1.3, -1, 1, n=200)
        for obs in ("H0", "X1", "X2", "K"):
            vals = observable_value(sp, obs, sts)
            assert vals.shape == (200,)
            for i, v in enumerate(vals):
                st = PhaseState(Chart("uv", float(sts.chart.q1[i]), float(sts.chart.q2[i])),
                                float(sts.p1[i]), float(sts.p2[i]))
                single = observable_value(sp, obs, st)
                assert np.ndim(single) == 0
                assert single == v, (obs, i, single, v)


# a box inside each domain for every chart with real maps (as in
# tests/test_geometry.py), clear of the focal points of the elliptic charts
REAL_STATE_BOXES = {
    (DIII, "uv"): (-1, 1, 0, 6),
    (DIII, "polar"): (0.2, 2, 0, 3),
    (DIII, "parabolic"): (0.1, 2, 0.1, 2),
    (DIII, "elliptic"): (0.1, 2, -3, 3),
    (DIV, "uv"): (0.25, 1.3, -1, 1),
    (DIV, "horospherical"): (0.2, 2, 0.2, 2),
    (DIV, "degelliptic2"): (0.1, 2, 0.1, math.pi / 2 - 0.1),
    (DIV, "elliptic"): (0.1, 2, 0.1, math.pi / 2 - 0.1),
}


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def test_real_state_boxes_cover_every_real_chart():
    from darboux.geometry import CHARTS

    real = {(fam, name) for fam, rows in CHARTS.items() for name, row in rows.items()
            if row.to_uv is not None and row.from_uv is not None}
    assert real == set(REAL_STATE_BOXES)


@pytest.mark.parametrize("family, name", sorted(REAL_STATE_BOXES))
def test_transform_state_array_matches_scalar_bitwise(family, name):
    # an array of states in any real chart is transformed, and gives its
    # observables and constants, with the bits of its states one by one
    sp = SP1 if family == DIII else SP4
    sts = _random_states(np.random.default_rng(31), name, *REAL_STATE_BOXES[family, name])
    arr = transform_state(sp, sts, "uv")
    vals = {obs: observable_value(sp, obs, sts) for obs in ("H0", "X1", "X2", "K")}
    if family == DIII:
        spec, names = PotentialSpec(SP1, "DIII_V5", {"v0": 1.3}), ("R1", "R2", "R3")
    else:
        spec, names = PotentialSpec(SP4, "DIV_V4", {"k0": 0.8}), ("R3",)
    consts = {c: residual_constant(spec, c, sts) for c in names}
    for i in range(len(sts.p1)):
        st = PhaseState(Chart(name, float(sts.chart.q1[i]), float(sts.chart.q2[i])),
                        float(sts.p1[i]), float(sts.p2[i]))
        one = transform_state(sp, st, "uv")
        assert type(one.p1) is float and type(one.p2) is float
        assert _bits(one.chart.q1, one.chart.q2, one.p1, one.p2) == _bits(
            arr.chart.q1[i], arr.chart.q2[i], arr.p1[i], arr.p2[i]), i
        for obs, v in vals.items():
            assert _bits(observable_value(sp, obs, st)) == _bits(v[i]), (obs, i)
        for c, v in consts.items():
            assert _bits(residual_constant(spec, c, st)) == _bits(v[i]), (c, i)


@pytest.mark.parametrize("refuse", [
    lambda st: poisson_bracket_fd(SP1, "K", "X1", st),
    lambda st: algebra_check(SP1, st),
    lambda st: hamiltonian_flow(SP1, None, st, 1.0),
], ids=["poisson_bracket_fd", "algebra_check", "hamiltonian_flow"])
def test_bracket_refuses_an_array_of_states(refuse):
    a = np.array([0.5, 0.7])
    for name in ("uv", "polar"):
        with pytest.raises(ParamError, match="single state"):
            refuse(PhaseState(Chart(name, a, a), a, a))


@pytest.mark.parametrize("n_out", [1, 2, 201])
def test_flow_returns_one_state_of_sample_columns(n_out):
    st0 = PhaseState(Chart("horospherical", 1.2, 0.9, 0.5), 0.3, -0.5)
    ts, traj = hamiltonian_flow(SP4, PotentialSpec(SP4, "DIV_V4", {"k0": 0.8}), st0, 1.0,
                                n_out=n_out)
    assert type(traj) is PhaseState and (traj.chart.name, traj.chart.d) == ("horospherical", 0.5)
    cols = (traj.chart.q1, traj.chart.q2, traj.p1, traj.p2)
    for x in cols:
        assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == ts.shape == (n_out,)
    assert _bits(*(x[0] for x in cols)) == _bits(1.2, 0.9, 0.3, -0.5)
    # iterating it gives the single states in order, with np.float64 fields
    states = list(traj)
    assert len(states) == n_out
    for i, st in enumerate(states):
        fields = (st.chart.q1, st.chart.q2, st.p1, st.p2)
        assert all(type(x) is np.float64 for x in fields)
        assert (st.chart.name, st.chart.d) == ("horospherical", 0.5)
        assert _bits(*fields) == _bits(*(x[i] for x in cols))
    assert [_bits(s.p1) for s in traj] == [_bits(s.p1) for s in states]  # it iterates again
    # fed back whole, as a start state, it is refused
    with pytest.raises(ParamError, match="single state"):
        hamiltonian_flow(SP4, None, traj, 1.0)


@pytest.mark.parametrize("state", [
    PhaseState(Chart("uv", 0.3, 1.0), 0.7, -0.4),
    PhaseState(Chart("uv", np.float64(0.3), np.array(1.0)), np.float64(0.7), -0.4),
], ids=["floats", "numpy-scalars"])
def test_a_single_state_is_not_iterable(state):
    with pytest.raises(TypeError, match="not iterable"):
        iter(state)


def test_flow_and_its_callers_build_no_state_per_sample(monkeypatch, tmp_path):
    # a trajectory is one state of arrays: the PhaseStates that the flow, the
    # classical job and the classical suite build do not grow with the samples
    import functools

    import darboux.classical as cl
    import darboux.cli as cli
    import darboux.verify as vf

    made, init, flow = [], PhaseState.__init__, cl.hamiltonian_flow

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def job(n):
        assert cli.main(["classical", "--space", "DIII", "--a", "1", "--b", "1", "--q1", "0.3",
                         "--q2", "1.0", "--p1", "0.7", "--p2", "-0.4", "--t-final", "1",
                         "--samples", str(n), "--out", str(tmp_path / "c.json")]) == 0

    def suite(n):  # the suite's flow, at n samples
        monkeypatch.setattr(cl, "hamiltonian_flow", functools.partial(flow, n_out=n))
        vf.suite_classical()

    def built(run, n):
        made.clear()
        run(n)
        return len(made)

    st0 = PhaseState(Chart("uv", 0.3, 1.0), 0.7, -0.4)
    monkeypatch.setattr(PhaseState, "__init__", counted)
    alone = functools.partial(flow, SP1, None, st0, 1.0)
    assert built(lambda n: alone(n_out=n), 11) == built(lambda n: alone(n_out=n), 1001) == 1
    for run in (job, suite):
        assert built(run, 11) == built(run, 1001)


def test_list_coordinates_are_a_param_error():
    a = [0.5, 0.7]  # a list, not an array: the polar domain rule cannot compare it
    with pytest.raises(ParamError):
        observable_value(SP1, "X1", PhaseState(Chart("polar", a, a), a, a))


def test_bracket_evaluates_each_observable_once(monkeypatch):
    # each observable once over the 16 shifted states of a bracket; a scalar
    # central difference per shift made 32 calls
    import darboux.classical as cl

    calls = []
    value = cl.observable_value

    def counted_value(*args):
        calls.append(1)
        return value(*args)

    monkeypatch.setattr(cl, "observable_value", counted_value)
    for sp, st in ((SP1, PhaseState(Chart("uv", 0.3, 1.0), 0.7, -0.4)),
                   (SP4, PhaseState(Chart("uv", 0.7, 0.2), 0.7, -0.4))):
        calls.clear()
        cl.poisson_bracket_fd(sp, "X1", "X2", st)
        assert len(calls) == 2
        calls.clear()
        cl.algebra_check(sp, st)
        assert len(calls) <= 10


def test_flow_evaluates_h_once_per_rhs_call(monkeypatch):
    # one array evaluation of H per right-hand-side call, plus the domain check
    # at the start; a scalar central difference per coordinate would make 8
    import darboux.classical as cl

    calls, nfev = [], []
    value, integrate = cl._hamiltonian, cl.dop853

    def counted_value(*args):
        calls.append(1)
        return value(*args)

    def recorded_integrate(*args):
        y, n = integrate(*args)
        nfev.append(n)
        return y, n

    monkeypatch.setattr(cl, "_hamiltonian", counted_value)
    monkeypatch.setattr(cl, "dop853", recorded_integrate)
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 1.3})
    hamiltonian_flow(SP1, spec, PhaseState(Chart("uv", 0.2, 0.8), 0.6, 0.5), 1.0, tol=1e-11)
    assert nfev and nfev[0] > 0
    assert len(calls) <= nfev[0] + 1


V5 = PotentialSpec(SP1, "DIII_V5", {"v0": 1.3})
V1 = PotentialSpec(SP4, "DIV_V1", {"alpha": 0.4, "k1": 0.7, "k2": 1.1, "omega": 0.5})
# the stiff flow of test_cli.test_stiff_classical_flow_is_stopped
V2 = PotentialSpec(SP4, "DIV_V2", {"k1": 3.0, "k2": 1e-9, "k3": 1e6})


@pytest.mark.parametrize("space, spec, state, t_final, tol, n_out", [
    # the two criterion-8 flows
    (SpaceParams(DIII, 1.2, 0.8), None, PhaseState(Chart("uv", 0.3, 1.0), 0.7, -0.4),
     10.0, 1e-11, 201),
    (SP4, None, PhaseState(Chart("uv", 0.7, 0.2), 0.7, -0.4), 10.0, 1e-11, 201),
    (SP1, V5, PhaseState(Chart("uv", 0.2, 0.8), 0.6, 0.5), 3.0, 1e-10, 101),
    (SP4, V1, PhaseState(Chart("horospherical", 0.8, 0.9), 0.3, -0.2), 5.0, 1e-10, 101),
    (SP1, None, PhaseState(Chart("polar", 1.0, 0.3), 0.5, 0.2), 2.0, 1e-10, 51),
    (SP1, V5, PhaseState(Chart("parabolic", 0.9, 0.6), 0.2, -0.5), 0.05, TOL_FLOOR, 50),
    (SP1, V5, PhaseState(Chart("uv", 0.2, 0.8), 0.6, 0.5), 3.0, 1e-6, 101),
    (SP1, None, PhaseState(Chart("uv", 0.2, 0.8), 0.6, 0.5), np.finfo(float).tiny, 1e-10, 11),
    (SP4, None, PhaseState(Chart("uv", 0.7, 0.2), 0.5, 0.3), 1.0, 1e-10, 1),
    (SP4, V2, PhaseState(Chart("uv", 0.7, 0.5), 2.5, 0.5), 1.0, 1e-10, 101),
], ids=["DIII-criterion-8", "DIV-criterion-8", "DIII_V5-uv", "DIV_V1-horospherical",
        "DIII-polar", "DIII_V5-parabolic-tol-floor", "DIII_V5-uv-tol-1e-6",
        "least-normal-t-final", "one-sample", "DIV_V2-stiff"])
def test_flow_integrator_matches_scipy_bitwise(space, spec, state, t_final, tol, n_out,
                                               monkeypatch):
    # the in-repo DOP853 against scipy's, driven by the flow's own right-hand
    # side: the same calls at the same points, and the same times, states and nfev
    from scipy.integrate import solve_ivp

    import darboux.classical as cl

    runs = []

    def recorded(fun, t_final, y0, t_eval, tol, max_nfev):
        points = []

        def logged(t, y):
            points.append((t, y.copy()))
            return fun(t, y)

        def capped(t, y):  # the flow's cap on right-hand-side calls, for scipy
            if len(points) == max_nfev:
                raise BlowupError(f"the flow needs more than {max_nfev} right-hand-side calls")
            return logged(t, y)

        runs.append((capped, t_final, y0, t_eval, tol, points))
        return integrate(logged, t_final, y0, t_eval, tol, max_nfev)

    integrate = cl.dop853
    monkeypatch.setattr(cl, "dop853", recorded)
    try:
        ts, traj = hamiltonian_flow(space, spec, state, t_final, tol=tol, n_out=n_out)
    except BlowupError as exc:
        ours = exc
    else:
        ours = (ts, np.array([traj.chart.q1, traj.chart.q2, traj.p1, traj.p2]))
    assert isinstance(ours, BlowupError) == (spec is V2)
    capped, t_final, y0, t_eval, tol, points = runs[0]
    mine = list(points)
    points.clear()
    try:
        sol = solve_ivp(capped, (0.0, t_final), y0, t_eval=t_eval, rtol=tol, atol=tol,
                        method="DOP853")
    except BlowupError as exc:
        assert str(ours) == str(exc)
    else:
        assert sol.success and sol.nfev == len(mine)
        assert np.array_equal(sol.t, ours[0]) and np.array_equal(sol.y, ours[1])
    assert len(points) == len(mine)
    assert all(t == u and np.array_equal(y, z) for (t, y), (u, z) in zip(points, mine))


def test_integrator_step_collapse_matches_scipy():
    # y' = y^2 from y(0) = 1 blows up at t = 1: both integrators shrink the step
    # below ten spacings of the doubles there after the same calls
    from scipy.integrate import solve_ivp

    from darboux.dop853 import dop853

    def logged(points):
        return lambda t, y: points.append((t, y.copy())) or y * y

    ours, theirs = [], []
    with pytest.raises(BlowupError, match="integration stopped: Required step size"):
        dop853(logged(ours), 2.0, np.array([1.0]), np.linspace(0.0, 2.0, 5), 1e-10, 10**6)
    sol = solve_ivp(logged(theirs), (0.0, 2.0), np.array([1.0]), t_eval=np.linspace(0.0, 2.0, 5),
                    rtol=1e-10, atol=1e-10, method="DOP853")
    assert not sol.success and sol.message.startswith("Required step size")
    assert sol.nfev == len(ours) == len(theirs)
    assert all(t == u and np.array_equal(y, z) for (t, y), (u, z) in zip(ours, theirs))
