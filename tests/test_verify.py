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

    monkeypatch.setattr(vf, "solve_quantization", shifted)
    rep = vf.suite_spectra()
    detail = [d for d in rep["details"] if d["case"] == "DIII_V5 free levels"][0]
    assert detail["dev"] == pytest.approx(1e-3, rel=1e-9)
    assert rep["max_dev"] == pytest.approx(1e-3, rel=1e-9)
    assert not rep["pass"]
