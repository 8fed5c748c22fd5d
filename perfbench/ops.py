"""One function per op kind.  Each runs its op and checks the output.

An op returns a small dict of the values it checked.  A value out of its
pinned bound raises ``CheckFailed``; an expected classified error is caught
where the case lists it and is part of a correct result.  Anything else that
escapes counts as a failed op in the caller.

The CLI checks parse the output files themselves (strict RFC 8259 JSON, RFC
4180 CSV), so the CLI op of ``cli_jobs`` imports nothing from ``darboux``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import cases


class CheckFailed(Exception):
    """An op produced an output outside its bound."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------------ outputs

def _reject_constant(name):
    raise CheckFailed(f"non-RFC-8259 number {name} in JSON output")


def strict_json(data: bytes):
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def strict_csv(data: bytes):
    """Rows of an RFC 4180 file (CRLF line ends, equal field counts)."""
    text = data.decode("utf-8")
    _require(text.endswith("\r\n"), "CSV does not end with CRLF")
    _require("\n" not in text.replace("\r\n", ""), "CSV has a bare LF line end")
    rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    _require(len(rows) >= 2, "CSV has no records")
    width = len(rows[0])
    _require(all(len(r) == width for r in rows), "CSV rows differ in field count")
    return rows


def _drift(values):
    scale = max(max(abs(v) for v in values), 1e-12)
    return (max(values) - min(values)) / scale


def check_user_output(name: str, data: bytes) -> dict:
    """Check a user-sized CLI job's output against the acceptance bounds."""
    if name == "curvature_50":
        rows = strict_csv(data)
        _require(rows[0] == ["u", "v", "G", "G_closed"], "unexpected CSV header")
        dev = 0.0
        for r in rows[1:]:
            g, gc = float(r[2]), float(r[3])
            _require(math.isfinite(g) and math.isfinite(gc), "non-finite curvature")
            dev = max(dev, abs(g - gc) / (1.0 + abs(gc)))
        _require(len(rows) == 1 + 50 * 50, "curvature map has the wrong size")
        _require(dev < cases.CURVATURE_BOUND, f"curvature deviation {dev:.3e}")
        return {"curvature_dev": dev}
    doc = strict_json(data)
    recs = doc["records"]
    if name == "spectrum_div3":
        _require(len(recs) == 9, "spectrum table has the wrong size")
        worst = 0.0
        for r in recs:
            _require(len(r["candidates_re"]) > 0, f"no candidate at n={r['n']} l={r['l']}")
            for adm in r["admissible"]:
                worst = max(worst, adm["residual"])
        _require(worst < cases.DIV3_BOUND, f"DIV_V3 plug-back residual {worst:.3e}")
        return {"plugback": worst}
    if name == "wavefunction_v5":
        # The criterion-7 residual bound holds at 401x301; a 40x40 grid is
        # too coarse for it (the header reports about 2e-2), so this job is
        # checked against the closed form instead: the free-motion level
        # E = -(2n + 2l + 1)^2 / 2 (criterion 2) and the plane wave e^{i l v}
        # of the angular factor (tests/test_wavefun.py).
        head = doc["header"]
        n, l = head["n"], head["l"]
        de = abs(head["energy"] + 0.5 * (2 * n + 2 * l + 1) ** 2)
        _require(len(recs) == 40 * 40, "wavefunction grid has the wrong size")
        _require(math.isfinite(head["hamiltonian_residual"]), "non-finite PDE residual")
        _require(de < 1e-12, f"energy off the free-motion level by {de:.3e}")
        rows = {}
        for r in recs:
            rows.setdefault(r["q1"], []).append((r["q2"], complex(r["re"], r["im"])))
        row = max(rows.values(), key=lambda rr: abs(rr[0][1]))
        (v0, p0), worst = row[0], 0.0
        for v, p in row[1:]:
            worst = max(worst, abs(p / p0 - complex(math.cos(l * (v - v0)), math.sin(l * (v - v0)))))
        _require(worst < 1e-12, f"angular factor off the plane wave by {worst:.3e}")
        return {"energy_dev": de, "plane_wave_dev": worst,
                "residual": head["hamiltonian_residual"]}
    if name == "classical_t10":
        alg = doc["header"]["algebra_at_start"]
        fun = abs(alg["functional"])
        br = max(abs(v) for k, v in alg.items() if k.startswith("bracket"))
        dr = max(_drift([r[o] for r in recs]) for o in ("X1", "X2", "K"))
        _require(fun < cases.FUNCTIONAL_BOUND, f"functional {fun:.3e}")
        _require(br < cases.BRACKET_BOUND, f"bracket {br:.3e}")
        _require(dr < cases.DRIFT_BOUND, f"drift {dr:.3e}")
        return {"functional": fun, "brackets": br, "drift": dr}
    if name == "verify_all":
        _require([r["suite"] for r in recs] ==
                 ["building-blocks", "curvature", "spectra", "classical"], "missing suites")
        _require(all(r["pass"] is True for r in recs), "a verify suite did not pass")
        return {"max_dev": max(r["max_dev"] for r in recs)}
    raise KeyError(name)


def check_cli_output(op: dict, root: Path, returncode: int, data: bytes) -> dict:
    _require(returncode == 0, f"exit code {returncode}")
    if op["kind"] == "golden":
        want = (root / "tests" / "golden" / op["name"]).read_bytes()
        _require(data == want, f"output differs from tests/golden/{op['name']}")
        return {"bytes": len(data)}
    return check_user_output(op["name"], data)


# -------------------------------------------------------------- cli_jobs

def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli_subprocess(op: dict, root: Path, out: Path):
    """One ``python -m darboux.cli`` job; returns (exit code, output bytes)."""
    proc = subprocess.run([sys.executable, "-m", "darboux.cli", *op["argv"], "--out", str(out)],
                          cwd=root, env=cli_env(root), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    data = out.read_bytes() if proc.returncode == 0 else proc.stderr
    return proc.returncode, data


def run_cli_inprocess(op: dict, out: Path):
    """The same job through ``darboux.cli.main(argv)`` (the traced replay)."""
    import darboux.cli

    code = darboux.cli.main([*op["argv"], "--out", str(out)])
    data = out.read_bytes() if code == 0 else b""
    return code, data


# ----------------------------------------------------------- grid_states

def _space_of(family):
    from darboux.geometry import DIII, DIV, SpaceParams

    # the spaces of tests/test_acceptance.py: SP1 and SP4
    return SpaceParams(DIII, 1.0, 1.0) if family.startswith("DIII") else SpaceParams(DIV, 3.0, 1.0)


def bound_state(case, shape):
    """pick_energy -> default_grid -> assemble_bound_state; returns the field."""
    from darboux.potentials import PotentialSpec
    from darboux.spectra import QuantumNumbers
    from darboux.wavefun import assemble_bound_state, default_grid, pick_energy

    family, coup, chart, qn, energy = case
    spec = PotentialSpec(_space_of(family), family, coup)
    q = QuantumNumbers(*qn)
    e = energy if energy is not None else pick_energy(spec, q)
    if chart == "degelliptic2" and family == "DIV_V2":
        # the (u, v) state pulled back onto its own default grid
        return assemble_bound_state(spec, chart, q, energy=e)
    grid = default_grid(spec, chart, q, e, shape)
    return assemble_bound_state(spec, chart, q, grid=grid, energy=e)


def state_op(op: dict) -> dict:
    """A criterion-7 state at 401x301: its residual, and its norm where listed."""
    from darboux import errors
    from darboux.wavefun import hamiltonian_residual, normalize_weighted

    family, _, chart, _, _ = op["case"]
    field = bound_state(op["case"], cases.GRID_SHAPE)
    r = hamiltonian_residual(field)
    _require(r < cases.RESIDUAL_BOUND, f"{family}/{chart} residual {r:.3e}")
    out = {"residual": r}
    expect = op.get("norm")
    if expect == "ok":
        c = normalize_weighted(field).norm_constant
        _require(c is not None and math.isfinite(c) and c > 0, f"norm constant {c}")
        out["norm_constant"] = c
    elif expect is not None:
        wanted = getattr(errors, expect)
        try:
            normalize_weighted(field)
        except wanted:
            out["norm"] = expect
        else:
            raise CheckFailed(f"{family}/{chart} norm did not raise {expect}")
    return out


# ------------------------------------------------------- spectra_certify

def _space(d):
    from darboux.geometry import SpaceParams

    return SpaceParams(d["family"], d["a"], d["b"])


def spectrum_op(op: dict) -> dict:
    """A spectrum table.  No root may be lost: a polynomial condition has as
    many candidates as its degree, and every candidate, complex ones too,
    plugs back into the condition; DIV_V3 must bind at every (n, l)."""
    from darboux.potentials import PotentialSpec
    from darboux.spectra import QuantumNumbers, quantization_residual, solve_quantization

    fam = op["family"]
    spec = PotentialSpec(_space(op["space"]), fam, op["couplings"])
    bound = {"DIII_V1": cases.QUARTIC_BOUND, "DIV_V3": cases.DIV3_BOUND}.get(
        fam, cases.QUADRATIC_BOUND)
    degree = cases.CONDITION_DEGREE.get(fam)
    worst, real_roots, admissible_roots = 0.0, 0, 0
    for n, l in op["table"]:
        qn = QuantumNumbers(n, l, op["scheme"])
        res = solve_quantization(spec, qn)
        _require(degree is None or len(res.candidates) == degree,
                 f"{fam} n={n} l={l}: {len(res.candidates)} candidates, want {degree}")
        for z in res.candidates:
            worst = max(worst, quantization_residual(spec, qn, z))
        admissible = sum(rec["admissible"] for rec in res.admissible)  # real candidates
        _require(admissible > 0 or fam != "DIV_V3",
                 f"{fam} n={n} l={l}: no admissible real root")
        real_roots += len(res.admissible)
        admissible_roots += admissible
    _require(worst < bound, f"{fam} plug-back residual {worst:.3e}")
    return {"plugback": worst, "real_roots": real_roots, "admissible_roots": admissible_roots}


def building_block_op(op: dict) -> dict:
    import darboux.specfun as sf
    from darboux.oracle import verify_building_block

    tag, params, n_max, n_points, refs = op["case"]
    rep = verify_building_block(sf.ModelFamily(tag, params), n_max, n_points=n_points)
    dev_ref = 0.0
    for det, ref in zip(rep.details, refs or ()):
        dev_ref = max(dev_ref, abs(det["E_num"] - ref))
    _require(dev_ref < cases.BB_LEVEL_BOUND, f"{tag} reference level off by {dev_ref:.3e}")
    _require(rep.max_dev_eigenvalue < cases.BB_LEVEL_BOUND,
             f"{tag} eigenvalue deviation {rep.max_dev_eigenvalue:.3e}")
    _require(rep.max_dev_eigenvector < cases.BB_VECTOR_BOUND,
             f"{tag} eigenvector deviation {rep.max_dev_eigenvector:.3e}")
    return {"dE": rep.max_dev_eigenvalue, "dL2": rep.max_dev_eigenvector}


def classical_op(op: dict) -> dict:
    """algebra_check at the seeded phase point, then the pinned flow to t = 10."""
    from darboux.classical import (PhaseState, algebra_check, drift, hamiltonian_flow,
                                   observable_value)
    from darboux.geometry import Chart

    sp = _space(op["space"])
    st = PhaseState(Chart("uv", *op["q"]), *op["p"])
    res = algebra_check(sp, st)
    fun = abs(res["functional"])
    br = max(abs(v) for k, v in res.items() if k.startswith("bracket"))
    fsp, q0, p0 = op["flow"]
    fsp = _space(fsp)
    _, traj = hamiltonian_flow(fsp, None, PhaseState(Chart("uv", *q0), *p0), 10.0, tol=1e-11)
    dr = max(drift([observable_value(fsp, o, s) for s in traj]) for o in ("X1", "X2", "K"))
    _require(fun < cases.FUNCTIONAL_BOUND, f"functional {fun:.3e}")
    _require(br < cases.BRACKET_BOUND, f"bracket {br:.3e}")
    _require(dr < cases.DRIFT_BOUND, f"drift {dr:.3e}")
    return {"functional": fun, "brackets": br, "drift": dr}


def curvature_op(op: dict) -> dict:
    import numpy as np

    from darboux.geometry import Chart, curvature_closed, curvature_numeric

    sp = _space(op["space"])
    k = op["points"]
    dev = 0.0
    for u in np.linspace(*op["u"], k):
        for v in np.linspace(*op["v"], k):
            gn = curvature_numeric(sp, Chart("uv", float(u), float(v)))
            gc = curvature_closed(sp, (float(u), float(v)))
            dev = max(dev, abs(gn - gc) / (1.0 + abs(gc)))
    _require(dev < cases.CURVATURE_BOUND, f"curvature deviation {dev:.3e}")
    return {"curvature_dev": dev}


IN_PROCESS = {
    "state": state_op,
    "spectrum": spectrum_op,
    "building_block": building_block_op,
    "classical": classical_op,
    "curvature": curvature_op,
}


def warm_up(workload: str, root: Path, tmp: Path):
    """Touch each code path once so lazy imports and first-call costs are
    paid in set-up.  Outputs are discarded: the grids here are too coarse
    for the residual bound, which the measured ops check."""
    if workload == "cli_jobs":
        subprocess.run([sys.executable, "-m", "darboux.cli", "--help"], cwd=root,
                       env=cli_env(root), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=120, check=True)
        return
    if workload == "grid_states":
        from darboux.wavefun import hamiltonian_residual

        hamiltonian_residual(bound_state(cases.V4_PAIR[0], (41, 31)))
        return
    for op in cases.warm_up_deck():
        IN_PROCESS[op["kind"]](op)
