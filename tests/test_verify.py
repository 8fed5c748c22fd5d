import pytest

import darboux.verify as vf
from darboux.spectra import EnergyRoots, solve_quantization


def test_v5_free_levels_detail_reports_worst_pair(monkeypatch):
    # shift the (0, 0) free level; the detail must report it although later
    # (n, l) pairs of the loop are exact
    def shifted(spec, qn):
        roots = solve_quantization(spec, qn)
        if spec.family == "DIII_V5" and (qn.n, qn.l) == (0, 0):
            return EnergyRoots([z + 1e-3 for z in roots.candidates])
        return roots

    # suite_spectra imports the spectra layer when it runs
    monkeypatch.setattr("darboux.spectra.solve_quantization", shifted)
    rep = vf.suite_spectra()
    detail = [d for d in rep["details"] if d["case"] == "DIII_V5 free levels"][0]
    assert detail["dev"] == pytest.approx(1e-3, rel=1e-9)
    assert rep["max_dev"] == pytest.approx(1e-3, rel=1e-9)
    assert not rep["pass"]


def test_classical_drift_is_that_of_the_single_states():
    # the suite evaluates each observable once over the trajectory's columns;
    # observable_value promises each entry bitwise equal to its single state
    from darboux.classical import PhaseState, drift, hamiltonian_flow, observable_value
    from darboux.geometry import DIII, Chart, SpaceParams

    sp = SpaceParams(DIII, 1.2, 0.8)
    _, traj = hamiltonian_flow(sp, None, PhaseState(Chart("uv", 0.3, 1.0), 0.7, -0.4), 10.0,
                               tol=1e-11)
    single = max(drift([observable_value(sp, o, s) for s in traj])
                 for o in ("X1", "X2", "K", "H0"))
    assert vf.suite_classical()["details"][0]["drift"] == single
