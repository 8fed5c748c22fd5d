import ast
import contextlib
import csv
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

GOLDEN = pathlib.Path(__file__).parent / "golden"

JOBS = {
    "curvature.csv": ["curvature", "--space", "DIV", "--a", "2", "--b", "1",
                      "--grid", "6x6", "--format", "csv"],
    "spectrum.json": ["spectrum", "--space", "DIII", "--potential", "V5", "--a", "1",
                      "--b", "1", "--v0", "0", "--scheme", "uv", "--n", "0..2",
                      "--l", "0..2", "--format", "json"],
    "wavefunction.json": ["wavefunction", "--space", "DIII", "--potential", "V5",
                          "--a", "1", "--b", "1", "--v0", "0", "--n", "0", "--l", "1",
                          "--chart", "uv", "--grid", "12x12", "--format", "json"],
    "classical.json": ["classical", "--space", "DIII", "--a", "1", "--b", "1",
                       "--q1", "0.3", "--q2", "1.0", "--p1", "0.7", "--p2", "-0.4",
                       "--t-final", "1", "--samples", "11", "--format", "json"],
}


def run_cli(argv, out):
    return subprocess.run([sys.executable, "-m", "darboux.cli"] + argv + ["--out", str(out)],
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_golden_files(name, tmp_path):
    out = tmp_path / name
    r = run_cli(JOBS[name], out)
    assert r.returncode == 0, r.stderr
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(JOBS))
def test_rerun_byte_identical(name, tmp_path):
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert run_cli(JOBS[name], a).returncode == 0
    assert run_cli(JOBS[name], b).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_deterministic_and_exit_code(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli(["verify", "--suite", "all"], a)
    r2 = run_cli(["verify", "--suite", "all"], b)
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert [r["suite"] for r in doc["records"]] == ["building-blocks", "curvature", "spectra",
                                                     "classical"]
    assert all(r["pass"] is True for r in doc["records"])


def test_spectrum_contains_free_level(tmp_path):
    out = tmp_path / "spec.json"
    assert run_cli(JOBS["spectrum.json"], out).returncode == 0
    doc = json.loads(out.read_text())
    rec = [r for r in doc["records"] if r["n"] == 0 and r["l"] == 0][0]
    assert any(abs(e + 0.5) < 1e-12 for e in rec["candidates_re"])
    assert doc["header"]["potential"] == "DIII_V5"


def test_curvature_csv_all_minus_one(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(JOBS["curvature.csv"], out).returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].strip() == "u,v,G,G_closed"
    for line in lines[1:]:
        g = float(line.split(",")[2])
        assert abs(g + 1.0) < 1e-6


def test_validation_error_exit_code(tmp_path):
    out = tmp_path / "x.json"
    r = run_cli(["spectrum", "--space", "DIII", "--potential", "V9", "--a", "1",
                 "--b", "1"], out)
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert "V9" in err["message"]


def _with(job, **flags):
    """A golden job's argv with some flag values replaced."""
    argv = list(JOBS[job])
    for flag, val in flags.items():
        argv[argv.index(f"--{flag}") + 1] = val
    return argv


CURV = ["curvature", "--space", "DIV", "--a", "2", "--b", "1"]


@pytest.mark.parametrize("argv", [
    CURV + ["--grid", "12y12"],
    CURV + ["--grid", "0x0"],
    CURV + ["--u-range", "1"],
    CURV + ["--v-range", "0:x"],
    _with("spectrum.json", n="3..1"),
    _with("spectrum.json", l="a..b"),
    _with("spectrum.json", n="0..1..2"),
    _with("wavefunction.json", grid="12x"),
    _with("wavefunction.json", n="x"),
    _with("wavefunction.json", l="x"),
    # sizes no machine holds: past the caps of cli, before anything is allocated
    _with("spectrum.json", n="0..1000000000000000", l="0"),
    CURV + ["--grid", "1000000000000000x2"],
    _with("wavefunction.json", grid="1000000000000000x2"),
], ids=["grid-12y12", "grid-0x0", "u-range-1", "v-range-0:x", "n-3..1", "l-a..b",
        "n-0..1..2", "wavefunction-grid-12x", "wavefunction-n-x", "wavefunction-l-x",
        "n-0..1e15", "grid-1e15x2", "wavefunction-grid-1e15x2"])
def test_malformed_ranges_and_grids_exit_2(argv, tmp_path, capsys):
    from darboux.cli import main

    out = tmp_path / "x.out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParamError"
    assert not out.exists()


@pytest.mark.parametrize("cap, size, job", [("MAX_RECORDS", 9, "spectrum.json"),
                                            ("MAX_GRID_POINTS", 144, "wavefunction.json")])
def test_caps_bound_the_table_and_the_grid(cap, size, job, monkeypatch, tmp_path, capsys):
    # the golden table has 3 x 3 records, the golden grid 12 x 12 points: a cap
    # one below refuses them, and a cap at their size runs them
    from darboux import cli

    out = tmp_path / "x.json"
    monkeypatch.setattr(cli, cap, size - 1)
    assert cli.main(JOBS[job] + ["--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParamError"
    monkeypatch.setattr(cli, cap, size)
    assert cli.main(JOBS[job] + ["--out", str(out)]) == 0


# the job a flag is appended to, where no golden job sets it
APPENDED_TO = {"step": "curvature.csv", "energy": "wavefunction.json"}


@pytest.mark.parametrize("flag, val", [("a", "nan"), ("b", "inf"), ("v0", "nan"),
                                       ("step", "0"), ("step", "1e-300"),
                                       ("step", "1e-6"), ("step", "1e-7"),
                                       ("step", "1e-8"), ("step", "1e-12"),
                                       ("energy", "inf"), ("energy", "nan")])
def test_non_finite_parameters_exit_2(flag, val, tmp_path, capsys):
    from darboux.cli import main

    out = tmp_path / "x.json"
    job = APPENDED_TO.get(flag)
    argv = JOBS[job] + [f"--{flag}", val] if job else _with("spectrum.json", **{flag: val})
    assert main(argv + ["--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParamError"
    assert not out.exists()


def test_negative_exponent_parses_like_decimal(tmp_path):
    from darboux.cli import main

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_with("classical.json", p2="-1e-3") + ["--out", str(a)]) == 0
    assert main(_with("classical.json", p2="-0.001") + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [JOBS["spectrum.json"] + ["--bogus"],
                                  CURV + ["--step", "-1e-3"]],
                         ids=["unknown-flag", "step-negative-exponent"])
def test_parse_errors_exit_2(argv, tmp_path, capsys):
    from darboux.cli import main

    out = tmp_path / "x.out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParamError"
    assert not out.exists()
    assert main([argv[0], "--help"]) == 0


@pytest.mark.parametrize("step", ["1e-4", "1e-2"])
def test_curvature_resolving_steps_exit_0(step, tmp_path):
    # worst |G - G_closed| measured on this grid: 5.0e-8 at 1e-4, 1.4e-6 at 1e-2
    from darboux.cli import main

    out = tmp_path / "c.csv"
    assert main(JOBS["curvature.csv"] + ["--step", step, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().split()[1:]]
    assert max(abs(float(r[2]) - float(r[3])) for r in rows) < 2e-6


def test_wavefunction_pullback_chart(tmp_path):
    # DIV_V2 is assembled in degelliptic2 by pulling its (u, v) state back
    out = tmp_path / "w.json"
    r = run_cli(["wavefunction", "--space", "DIV", "--potential", "V2", "--a", "3", "--b", "1",
                 "--k1", "2", "--k2", "6", "--k3", "0.5", "--chart", "degelliptic2",
                 "--grid", "12x12"], out)
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["header"]["scheme"] == "degelliptic2"
    assert len(doc["records"]) == 144
    assert all(math.isfinite(rec[k]) for rec in doc["records"] for k in ("q1", "q2", "re", "im"))


def test_wavefunction_has_no_scheme_option(tmp_path):
    # the chart fixes the scheme; a polar state at the uv energy is no eigenstate
    from darboux.cli import main

    argv = _with("wavefunction.json", chart="polar") + ["--scheme", "uv"]
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == 2
    assert not (tmp_path / "x.json").exists()


def test_classical_records_evaluate_each_observable_once(monkeypatch, tmp_path):
    # the golden job's records take H0, X1, X2 and K as four array evaluations
    # over the trajectory, not four per record
    import darboux.classical as cl
    from darboux.cli import main

    calls = []
    value = cl.observable_value

    def counted_value(*args):
        calls.append(1)
        return value(*args)

    monkeypatch.setattr(cl, "observable_value", counted_value)
    # leave out the algebra check at the start, which is not a record
    monkeypatch.setattr(cl, "algebra_check", lambda space, state: {})
    assert main(JOBS["classical.json"] + ["--out", str(tmp_path / "c.json")]) == 0
    assert 0 < len(calls) <= 4


def test_classical_singular_start_point_exit_2(tmp_path):
    out = tmp_path / "c.json"
    r = run_cli(["classical", "--space", "DIII", "--a", "1", "--b", "1", "--potential", "V2",
                 "--alpha", "0.3", "--k1", "0.3", "--k2", "0.7", "--q1", "0.3", "--q2", "0.0",
                 "--p1", "0.7", "--p2", "-0.4", "--t-final", "1"], out)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "DomainError"
    assert not out.exists()


# the jobs that need numpy only; verify also loads scipy's LAPACK extension,
# not the scipy.linalg package, for its finite-difference oracle.  The
# classical flow runs the in-repo DOP853.  The DIV_V1 state is a product of a
# Poeschl-Teller and a Morse eigenfunction, whose norms are closed forms
NUMPY_ONLY = {name: JOBS[name] for name in ("curvature.csv", "spectrum.json",
                                            "wavefunction.json", "classical.json")}
NUMPY_ONLY["div_v1.json"] = ["wavefunction", "--space", "DIV", "--potential", "V1",
                             "--a", "3", "--b", "1", "--alpha", "12", "--k1", "0.6",
                             "--k2", "0.4", "--omega", "1", "--chart", "uv",
                             "--grid", "40x40"]


def test_numpy_only_jobs_load_no_scipy(tmp_path):
    script = (
        "import sys\n"
        "import darboux.cli\n"
        f"for name, argv in {list(NUMPY_ONLY.items())!r}:\n"
        f"    code = darboux.cli.main(argv + ['--out', {str(tmp_path)!r} + '/' + name])\n"
        "    assert code == 0, (name, code)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def _import_time_nodes(body):
    """The statements of a module body that run when it is imported."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for part in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_nodes(getattr(node, part, []))


def test_no_module_level_scipy_import():
    src = pathlib.Path(__file__).parent.parent / "src" / "darboux"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text()).body):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"scipy imported at module level: {offenders}"


NUMERICAL_LAYERS = ["numpy"] + [f"darboux.{m}" for m in (
    "geometry", "specfun", "families", "potentials", "spectra", "wavefun", "oracle",
    "classical", "verify")]
FAMILY_LAYERS = ["darboux.families", "darboux.potentials", "darboux.spectra"]


@pytest.mark.parametrize("argv,code,absent", [
    (["--help"], 0, NUMERICAL_LAYERS),
    (JOBS["curvature.csv"], 2, NUMERICAL_LAYERS),  # no --out: a parse error
    (JOBS["curvature.csv"] + ["--out", "OUT"], 0, ["scipy", "darboux.spectra"]),
    (JOBS["spectrum.json"] + ["--out", "OUT"], 0, ["scipy", "darboux.wavefun"]),
    (["verify", "--suite", "classical", "--out", "OUT"], 0, ["scipy", "scipy.integrate"]),
    # the oracle loads scipy's LAPACK extension by path: no scipy package is imported,
    # and neither the oracle nor the geometry suite loads a family layer
    (["verify", "--suite", "building-blocks", "--out", "OUT"], 0,
     ["scipy", "scipy.linalg", "scipy.integrate"] + FAMILY_LAYERS),
    (["verify", "--suite", "curvature", "--out", "OUT"], 0, ["scipy"] + FAMILY_LAYERS),
    # the suites draw their cases with the standard library's random, and the
    # oracle's ODE residual alone needs wavefun's stencil
    (["verify", "--suite", "all", "--out", "OUT"], 0,
     ["scipy", "scipy.linalg", "scipy.integrate", "numpy.random", "darboux.wavefun"]),
    # a free flow loads no potential layer
    (JOBS["classical.json"] + ["--out", "OUT"], 0,
     ["scipy", "darboux.families", "darboux.specfun", "darboux.potentials"]),
], ids=["help", "parse-error", "curvature", "spectrum", "verify-classical",
        "verify-building-blocks", "verify-curvature", "verify-all", "classical"])
def test_start_up_loads_only_what_the_command_runs(argv, code, absent, tmp_path):
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    script = (
        "import json, sys\n"
        "import darboux.cli\n"
        f"code = darboux.cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    got, loaded = json.loads(r.stdout.splitlines()[-1])
    assert got == code, r.stderr
    assert not set(absent) & set(loaded)


def test_curvature_stencil_outside_chart_exit_2(tmp_path, capsys):
    from darboux.cli import main

    # u = 5e-4 is inside D_IV's chart, but its stencil at step 1e-3 is not
    out = tmp_path / "c.csv"
    assert main(CURV + ["--grid", "4x3", "--u-range", "0.0005:1", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
    assert not out.exists()


def test_diii_v1_degenerate_b_exit_2(tmp_path, capsys):
    from darboux.cli import main

    # (a b)^2 underflows to 0; the quartic condition is then undefined
    out = tmp_path / "s.json"
    argv = ["spectrum", "--space", "DIII", "--potential", "V1", "--a", "1", "--b", "1e-300",
            "--k3", "0.1", "--scheme", "parabolic", "--n", "0", "--l", "0", "--out", str(out)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParamError"
    assert not out.exists()


DIV3 = ["spectrum", "--space", "DIV", "--potential", "V3", "--a", "3", "--b", "1",
        "--c1", "0.3", "--c2", "-200", "--c3", "0.2", "--scheme", "degelliptic2", "--l", "0"]


def test_spectrum_failed_records_kept(tmp_path, capsys):
    from darboux.cli import main

    # at these couplings DIV_V3 has a root for n + l <= 5 only
    full, part = tmp_path / "full.json", tmp_path / "part.json"
    assert main(DIV3 + ["--n", "0..7", "--out", str(full)]) == 0
    assert main(DIV3 + ["--n", "0..5", "--out", str(part)]) == 0
    full_doc, part_doc = json.loads(full.read_text()), json.loads(part.read_text())
    assert full_doc["header"].pop("failed_records") == 2
    assert "failed_records" not in part_doc["header"]
    assert full_doc["header"] == part_doc["header"]
    assert ([json.dumps(r, sort_keys=True) for r in full_doc["records"][:6]]
            == [json.dumps(r, sort_keys=True) for r in part_doc["records"]])
    for rec, n in zip(full_doc["records"][6:], (6, 7)):
        assert rec == {"n": n, "l": 0, "candidates_re": [], "candidates_im": [],
                       "admissible": [],
                       "error": {"type": "NoRootError",
                                 "message": "DIV_V3 bracket scan found no sign change"}}
    # a table in which every record fails is an error
    none = tmp_path / "none.json"
    assert main(DIV3 + ["--n", "6..7", "--out", str(none)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NoRootError"
    assert not none.exists()


def test_div_v3_level_below_a_fixed_scan_depth(tmp_path):
    from darboux.cli import main

    # its level lies 563 hbar^2/(2 m a_+) below the top of its window, deeper
    # than the 400 (1 + n + l)^2 = 400 that a fixed scan depth would reach
    out = tmp_path / "s.json"
    argv = ["spectrum", "--space", "DIV", "--potential", "V3", "--a", "15.434919407274238",
            "--b", "1", "--c1", "-3.6569288943579323", "--c2", "-4409.966024453553",
            "--c3", "-53.52303018568568", "--scheme", "degelliptic2", "--n", "0", "--l", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    (rec,) = json.loads(out.read_text())["records"]
    assert rec["candidates_re"] == [-72.508355914351] and rec["candidates_im"] == [0.0]
    (adm,) = rec["admissible"]
    assert adm["E"] == -72.508355914351 and adm["admissible"] and adm["residual"] < 1e-9


def test_div_v3_level_where_an_index_square_rounds_negative_at_the_top(tmp_path):
    from darboux.cli import main

    # E_top = -17133.298230873406, where 1e-12 is under an ulp: an index square
    # rounds negative there and the gap is NaN, one ulp lower it is 2.73.  The
    # level agrees with a 30-digit mpmath root to 2.8e-16 (1 + |E|)
    out = tmp_path / "s.json"
    argv = ["spectrum", "--space", "DIV", "--potential", "V3", "--a", "2.0014047737173284",
            "--b", "1", "--c1", "12.688217531506535", "--c2", "-3711.2996267002586",
            "--c3", "-12.284203522939976", "--scheme", "degelliptic2", "--n", "0", "--l", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    (rec,) = json.loads(out.read_text())["records"]
    assert rec["candidates_re"] == [-20838.173050598078] and "error" not in rec
    (adm,) = rec["admissible"]
    assert adm["admissible"] and adm["unsquared_sign"] == 1 and adm["residual"] < 1e-9


def test_internal_error_exit_4(monkeypatch, tmp_path, capsys):
    import darboux.cli as cli

    def broken(args):
        raise RuntimeError("not a validation error")

    monkeypatch.setattr(cli, "cmd_curvature", broken)
    out = tmp_path / "x.csv"
    assert cli.main(JOBS["curvature.csv"] + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err) == {"error": "RuntimeError", "message": "not a validation error"}
    assert not out.exists()


def test_failed_suite_exit_3(monkeypatch, tmp_path):
    import darboux.cli as cli
    import darboux.verify as vf

    monkeypatch.setattr(vf, "suite_spectra",
                        lambda: {"pass": False, "max_dev": 1.0, "details": []})
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--suite", "spectra", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["records"][0]["pass"] is False


@pytest.mark.parametrize("argv", [
    _with("spectrum.json", potential="V9"),
    _with("spectrum.json", potential="V5") + ["--k1", "1"],
], ids=["unknown-potential", "coupling-of-another-family"])
def test_unknown_potential_or_coupling_is_param_error(argv, tmp_path, capsys):
    from darboux.cli import main

    out = tmp_path / "x.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParamError"
    assert not out.exists()


CLASSICAL = JOBS["classical.json"]


@pytest.mark.parametrize("argv", [
    _with("classical.json", **{"t-final": "0"}),
    _with("classical.json", **{"t-final": "nan"}),
    _with("classical.json", **{"t-final": "-1"}),
    _with("classical.json", **{"t-final": "inf"}),
    _with("classical.json", samples="0"),
    _with("classical.json", samples="-3"),
    _with("classical.json", samples="10000000000000000000"),
    CLASSICAL + ["--tol", "-1"],
    CLASSICAL + ["--tol", "0"],
    CLASSICAL + ["--tol", "nan"],
    CLASSICAL + ["--tol", "1e-15"],
    _with("classical.json", p1="nan"),
    _with("classical.json", p2="inf"),
], ids=["t-final-0", "t-final-nan", "t-final--1", "t-final-inf", "samples-0", "samples--3",
        "samples-1e19", "tol--1", "tol-0", "tol-nan", "tol-1e-15", "p1-nan", "p2-inf"])
def test_classical_bad_inputs_exit_2(argv, tmp_path, capsys):
    from darboux.cli import main

    out = tmp_path / "c.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParamError"
    assert not out.exists()


def test_stiff_classical_flow_is_stopped(tmp_path, capsys):
    # at k3 = 1e6 the flow takes ever smaller steps; it is stopped at its cap of
    # right-hand-side calls instead of running for minutes
    from darboux.cli import main

    out = tmp_path / "c.json"
    argv = ["classical", "--space", "DIV", "--a", "3", "--b", "1", "--potential", "V2",
            "--k1", "3", "--k2", "1e-9", "--k3", "1e6", "--q1", "0.7", "--q2", "0.5",
            "--p1", "2.5", "--p2", "0.5", "--t-final", "2", "--out", str(out)]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 3.0
    assert json.loads(capsys.readouterr().err)["error"] == "BlowupError"
    assert not out.exists()


DIV_V2_UV = ["wavefunction", "--space", "DIV", "--potential", "V2", "--a", "3", "--b", "1",
             "--k1", "2", "--k2", "6", "--k3", "0.5", "--chart", "uv"]


def test_level_beyond_the_ladder_is_level_error(tmp_path, capsys):
    # the MPT_bound factor of DIV_V2 at these couplings holds the levels 0..1;
    # no root of (0, 3) decays, so the job is given the (0, 0) energy
    from darboux.cli import main
    from darboux.errors import LevelError, ParamError

    assert issubclass(LevelError, ParamError) and issubclass(LevelError, IndexError)
    out = tmp_path / "w.json"
    argv = DIV_V2_UV + ["--n", "0", "--l", "3", "--energy", "-0.5505102572168219"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "LevelError",
                               "message": "MPT_bound supports indices 0..1, got 3"}
    assert not out.exists()


def test_negative_l_with_energy_is_the_level_error_of_the_picked_energy(tmp_path, capsys):
    # the Morse log-axis of the hyperbolic chart numbers a ladder level by l; a
    # given --energy must not bypass the refusal that picking the energy makes
    from darboux.cli import main

    out = tmp_path / "w.json"
    argv = ["wavefunction", "--space", "DIII", "--potential", "V4", "--a", "1", "--b", "1",
            "--d1", "-1.5", "--d2", "-0.5", "--omega", "1", "--chart", "hyperbolic",
            "--n", "0", "--l", "-1", "--out", str(out)]
    errors = []
    for extra in ([], ["--energy", "-3"]):
        assert main(argv + extra) == 2
        errors.append(json.loads(capsys.readouterr().err))
    assert errors[0] == errors[1] == {
        "error": "LevelError",
        "message": "DIII_V4 numbers a ladder level by l in scheme 'hyperbolic', got -1"}
    assert not out.exists()


@pytest.mark.parametrize("n,l", [(1, 0), (1, 1), (2, 0)])
def test_no_decaying_sign_consistent_root_exit_2(n, l, tmp_path, capsys):
    # the squared DIV_V2 condition has roots here (E = 0 at n + l = 1, the
    # (0, 0) roots at n + l = 2), but none solves the unsquared one and decays
    from darboux.cli import main

    out = tmp_path / "w.json"
    assert main(DIV_V2_UV + ["--n", str(n), "--l", str(l), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NoAdmissibleRootError"
    assert not out.exists()


DIII_V3 = ["--space", "DIII", "--potential", "V3", "--a", "1", "--b", "1",
           "--alpha", "0", "--c1", "1.2", "--c2", "0.8"]


def test_diii_v3_levels_past_the_angle_ladder_are_no_states(tmp_path, capsys):
    # the complex-Morse angle holds only level 0 here; the squared condition
    # still has roots at l = 1, 2, but no state decays there
    from darboux.cli import main

    out = tmp_path / "s.json"
    argv = ["spectrum"] + DIII_V3 + ["--scheme", "polar", "--n", "0", "--l", "0..2"]
    assert main(argv + ["--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    table = [[(r["l"], row["admissible"], row["decaying_wavefunction"]) for row in r["admissible"]]
             for r in records]
    assert table == [[(0, True, True), (0, False, False)],
                     [(1, True, False), (1, False, False)],
                     [(2, True, False), (2, False, False)]]
    levels = [r["candidates_re"][0] for r in records]
    assert levels == pytest.approx([-0.648, -4.094320169357534, -11.817480254036301], rel=1e-12)

    argv = ["wavefunction"] + DIII_V3 + ["--chart", "polar", "--n", "0", "--l", "1"]
    assert main(argv + ["--out", str(tmp_path / "w.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NoAdmissibleRootError"


DIV_V1 = ["--space", "DIV", "--potential", "V1", "--a", "3", "--b", "1", "--alpha", "8",
          "--k1", "1.6", "--k2", "1.4"]


@pytest.mark.parametrize("job", [
    ["spectrum", "--scheme", "uv", "--n", "0..1", "--l", "0..1"],
    ["wavefunction", "--chart", "uv", "--n", "1", "--l", "0", "--grid", "12x12"],
    ["wavefunction", "--chart", "horospherical", "--n", "0", "--l", "1", "--grid", "12x12"],
    ["wavefunction", "--chart", "uv", "--n", "0", "--l", "0", "--energy", "-0.5",
     "--grid", "12x12"],
], ids=["spectrum-uv", "uv-1-0", "horospherical-0-1", "uv-given-energy"])
def test_div_v1_reads_the_modulus_of_omega(job, tmp_path):
    # the potential holds omega only as omega^2
    from darboux.cli import main

    docs = []
    for omega in ("1", "-1"):
        out = tmp_path / f"{omega}.json"
        assert main(job[:1] + DIV_V1 + ["--omega", omega] + job[1:] + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["header"]["couplings"].pop("omega") == float(omega)
        docs.append(doc)
    assert docs[0] == docs[1]


def test_non_finite_header_exit_2(tmp_path):
    # E = -2.5e32 leaves the sampled state 0 everywhere, which has no relative
    # Hamiltonian residual
    out = tmp_path / "w.json"
    r = run_cli(["wavefunction", "--space", "DIII", "--a", "1", "--b", "1", "--potential", "V3",
                 "--alpha", "12", "--c1", "1e6", "--c2", "1e-9", "--chart", "polar",
                 "--n", "2", "--l", "4", "--grid", "12x12"], out)
    assert r.returncode == 2, r.stderr
    assert r.stderr.count("\n") == 1
    assert json.loads(r.stderr)["error"] == "ParamError"
    assert not out.exists()


@pytest.mark.parametrize("argv,error", [
    # the Morse factors overflow on the grid
    ("wavefunction --space DIII --potential V4 --a 3 --b 1 --d1 -1e6 --d2 -0.5 --omega 1 "
     "--chart hyperbolic --n 1 --l 0", "GridError"),
    # a closed-form norm overflows: the PT gamma ratio, RHO's q^(lam + 1), cMorse's (4 c1)^mu
    ("wavefunction --space DIV --potential V2 --a 3 --b 1 --k1 2 --k2 1e6 --k3 0.5 --chart uv",
     "ParamError"),
    ("wavefunction --space DIV --potential V1 --a 2.5 --b 1 --alpha 1e6 --k1 2.5 --k2 0.5 "
     "--omega 2.5 --chart horospherical --n 2 --l 2", "ParamError"),
    ("wavefunction --space DIII --potential V3 --a 1 --b 0.5 --alpha 12 --c1 1e6 --c2 2.5 "
     "--chart polar --n 2 --l 2", "ParamError"),
    # b = 0: the hyperbolic grid is not clamped, as a + b (mu - nu)/2 = a
    ("wavefunction --space DIII --potential V4 --a 1 --b 0 --d1 -1.5 --d2 -0.5 --omega 1 "
     "--chart hyperbolic --n 0 --l 0", None),
    # a = 2b: a_- = 0
    ("spectrum --space DIV --potential V3 --a 1 --b 0.5 --c2 1e-9 --c3 -1 --scheme degelliptic2 "
     "--n 0 --l 0", "ParamError"),
], ids=["morse-overflow", "pt-norm-overflow", "rho-norm-overflow", "cmorse-norm-overflow",
        "diii-v4-flat-b", "div-v3-zero-a-minus"])
def test_extreme_couplings_exit_0_or_2(argv, error, tmp_path, capsys):
    from darboux.cli import main

    out = tmp_path / "x.json"
    grid = ["--grid", "12x12"] if argv.startswith("wavefunction") else []
    code = main(argv.split() + grid + ["--out", str(out)])
    err = capsys.readouterr().err
    if error is None:
        assert code == 0 and err == ""
        assert json.loads(out.read_text())["records"]
    else:
        assert code == 2 and err.count("\n") == 1
        assert json.loads(err)["error"] == error
        assert not out.exists()


@pytest.mark.parametrize("fmt,header,record", [
    ("json", {"residual": math.nan}, {"x": 1.0}),
    ("json", {}, {"x": -math.inf}),
    ("csv", {}, {"x": math.nan}),
    ("csv", {}, {"x": math.inf}),
], ids=["json-header-nan", "json-record-inf", "csv-nan", "csv-inf"])
def test_emit_refuses_non_finite_numbers(fmt, header, record, tmp_path):
    from types import SimpleNamespace

    from darboux.cli import _emit
    from darboux.errors import ParamError

    out = tmp_path / f"x.{fmt}"
    args = SimpleNamespace(format=fmt, out=str(out))
    with pytest.raises(ParamError, match="non-finite"):
        _emit(args, header, [{"x": 0.5}, record])
    assert not out.exists()
    _emit(args, {"residual": 0.0}, [{"x": 0.5}, {"x": 2}])
    assert out.exists()


@pytest.mark.parametrize("argv,error", [
    # a spectrum record holds lists, which a CSV cell cannot
    ("spectrum --space DIII --a 1 --b 1 --potential V5 --v0 0 --n 0..1 --l 0 --format csv",
     "ParamError"),
    # the metric factor leaves the range of a double inside the stencil
    ("curvature --space DIII --a 2.5 --b 0.5 --u-range=2.5:2.5 --step 1e6 --grid 3x3",
     "FloatingPointError"),
    # B^2 of the squared condition overflows
    ("spectrum --space DIII --a 1.3 --b 0.1 --potential V3 --alpha -1 --c1 2.7 --c2 1.3e-160 "
     "--scheme polar --n 0 --l 1", "OverflowError"),
    # the D_III factors need bE < 0
    ("wavefunction --space DIII --a 2.5 --b 0.4 --potential V5 --chart uv --n 0 --l 0 "
     "--energy 0 --grid 6x6", "DomainError"),
    # X1 and X2 are normalized by b
    ("classical --space DIII --a 1 --b 0 --q1 0.3 --q2 0 --p1 0.7 --p2 0.3 --t-final 1",
     "ParamError"),
    ("classical --space DIV --a 3 --b 0 --q1 0.3 --q2 0 --p1 0.7 --p2 0.3 --t-final 1",
     "ParamError"),
    # e^{-2v} of X1 overflows
    ("classical --space DIV --a 2 --b 1 --potential V4 --k0 0.7 --q1 1.2 --q2 -1e6 --p1 -1.6 "
     "--p2 1.2 --t-final 1", "FloatingPointError"),
    # f^3 of the closed-form curvature underflows to 0
    ("curvature --space DIII --a 2.1e-181 --b 2.1e-181 --grid 3x3", "ZeroDivisionError"),
    # the metric factor at the start and a step of the flow leave the range of a double
    ("classical --space DIII --a 3 --b 1 --q1 -1e6 --q2 0.3 --p1 -3.7 --p2 0.99 --t-final 1.7",
     "FloatingPointError"),
    ("classical --space DIII --a 2.4e-296 --b 2.4e-296 --q1 0.3 --q2 0.57 --p1 1.6e-219 "
     "--p2 0.3 --t-final 1e-9", "FloatingPointError"),
    # the y window of the hyperbolic grid collapses onto its lower end
    ("wavefunction --space DIII --a 2 --b 1 --potential V4 --chart hyperbolic --n 0 --l 0 "
     "--energy -8.2e-46 --grid 16x14", "GridError"),
    # a subnormal t-final gave sample times that solve_ivp refuses as unsorted
    ("classical --space DIV --a 1.3 --b 0.1 --q1 0.7 --q2 0.7 --p1 1 --p2 0.7 --t-final 5e-324 "
     "--samples 7", "ParamError"),
    # a subnormal omega puts the horospherical sampling window at infinity
    ("wavefunction --space DIV --a 3 --b 1 --potential V1 --alpha 0 --k1 0 --k2 2.2e-313 "
     "--omega 2.2e-313 --chart horospherical --n 1 --l 1 --energy 0 --grid 5x3", "GridError"),
    # the y window near -2.44e21 is a few ulps wide: its nodes repeated, and the
    # stencils divided by a zero step
    ("wavefunction --space DIII --a 2 --b 1 --potential V1 --k1 0.4 --k2 0.3 --k3 0.2 "
     "--chart parabolic --n 0 --l 0 --energy -2.4602398208697476e-22 --grid 16x14", "GridError"),
    # a chart outside the family's schemes is refused with and without --energy
    ("wavefunction --space DIII --a 1 --b 1 --potential V1 --k1 0.4 --k2 0.3 --k3 0.2 "
     "--chart polar", "ParamError"),
    ("wavefunction --space DIII --a 1 --b 1 --potential V1 --k1 0.4 --k2 0.3 --k3 0.2 "
     "--chart polar --energy -1", "ParamError"),
    # and a family with no discrete levels, with and without --energy
    ("wavefunction --space DIV --a 3 --b 1 --potential V4 --k0 0.7 --chart uv",
     "UnsupportedError"),
    ("wavefunction --space DIV --a 3 --b 1 --potential V4 --k0 0.7 --chart uv --energy -1",
     "UnsupportedError"),
], ids=["spectrum-csv", "curvature-huge-step", "diii-v3-tiny-c2", "diii-v5-energy-0",
        "diii-b-0", "div-b-0", "div-v4-far-v", "curvature-tiny-a-b", "classical-far-u",
        "classical-tiny-a-b", "diii-v4-tiny-energy", "classical-subnormal-t-final",
        "div-v1-subnormal-omega", "diii-v1-narrow-window", "diii-v1-off-scheme",
        "diii-v1-off-scheme-energy", "div-v4-no-levels", "div-v4-no-levels-energy"])
def test_argvs_the_property_found_exit_2(argv, error, tmp_path, capsys):
    # each exited 4 (with warnings as errors), or 0 with a CSV of Python lists
    from darboux.cli import main

    out = tmp_path / "x.out"
    assert main(argv.split() + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == error
    assert not out.exists()


def test_reversed_hyperbolic_window_is_a_grid_error(tmp_path, capsys):
    # at E = -500 the clamp of the x window, ln 0.3, lies above the window's top:
    # the grid was reversed and the job exited 0 with a residual of 427
    from darboux.cli import main

    out = tmp_path / "x.json"
    argv = ("wavefunction --space DIII --a 1 --b 1 --potential V4 --d1 -1500 --d2 -500 "
            "--omega 1 --chart hyperbolic --n 0 --l 0").split()
    assert main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GridError" and "increasing" in err["message"]
    assert not out.exists()


# ----------------------------------------------------------------------
# every argv exits 0 with output that parses, or 2 with one JSON line
# ----------------------------------------------------------------------

NUMBERS = st.one_of(st.sampled_from(["0", "1", "-1", "0.7", "2.5", "1e-9", "1e6", "-1e6",
                                     "nan", "inf"]),
                    st.floats(-4.0, 4.0).map(repr))


@st.composite
def cli_argvs(draw):
    """An argv of one of the five subcommands, valid or not, at most 20x20
    points and t-final <= 2."""
    from darboux.families import FAMILIES
    from darboux.geometry import CHARTS

    command = draw(st.sampled_from(["curvature", "spectrum", "wavefunction", "classical",
                                    "verify"]))
    fmt = ["--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "verify":
        suites = ["all", "building-blocks", "curvature", "spectra", "classical"]
        return ["verify", "--suite", draw(st.sampled_from(suites))] + fmt
    space = draw(st.sampled_from(["DIII", "DIV"]))
    a, b = draw(st.sampled_from([("3", "1"), ("2", "1"), ("2.5", "0.4"), ("1.3", "0.1")]))
    if draw(st.integers(0, 4)) == 0:
        a, b = draw(NUMBERS), draw(NUMBERS)
    argv = [command, "--space", space, "--a", a, "--b", b]
    sizes = st.integers(1, 20)
    grid = ["--grid", f"{draw(sizes)}x{draw(sizes)}"]
    if command == "curvature":
        for flag in ("--u-range", "--v-range"):
            if draw(st.booleans()):
                argv += [f"{flag}={draw(NUMBERS)}:{draw(NUMBERS)}"]
        if draw(st.booleans()):
            argv += ["--step", draw(st.sampled_from(["1e-2", "1e-4"]) | NUMBERS)]
        return argv + grid + fmt
    schemes = ("uv",)
    if command != "classical" or draw(st.booleans()):
        family = draw(st.sampled_from(sorted(f for f in FAMILIES if f.startswith(space + "_"))))
        argv += ["--potential", family.split("_")[1]]
        for c in FAMILIES[family].couplings:
            if draw(st.integers(0, 3)):
                argv += [f"--{c}", draw(NUMBERS)]
        schemes = FAMILIES[family].schemes or schemes
    # half the time a chart that the family separates in
    charts = st.sampled_from(schemes) | st.sampled_from(list(CHARTS[space]))
    levels = st.sampled_from(["0", "0", "1", "2"])
    if command == "spectrum":
        return argv + ["--scheme", draw(charts), "--n", f"{draw(levels)}..{draw(levels)}",
                       "--l", f"{draw(levels)}..{draw(levels)}"] + fmt
    if command == "wavefunction":
        argv += ["--chart", draw(charts), "--n", draw(levels), "--l", draw(levels)] + grid
        if draw(st.integers(0, 3)) == 0:
            argv += ["--energy", draw(NUMBERS)]
        return argv + fmt
    argv += ["--chart", draw(charts)]
    for flag in ("--q1", "--q2", "--p1", "--p2"):
        argv += [flag, draw(st.sampled_from(["0.3", "0.7", "1.2"]) | NUMBERS)]
    return argv + ["--t-final", draw(st.floats(0.0, 2.0).map(repr) | NUMBERS.filter(
        lambda t: not float(t) > 2)), "--samples", str(draw(st.integers(-1, 12)))] + fmt


def _parsed_output(path, fmt):
    """The rows of a CSV output (equal widths, each cell a finite number, a
    flag or a name) or a JSON document without NaN or infinities."""
    text = path.read_bytes().decode("utf-8")
    if fmt == "json":
        def refuse(name):
            raise ValueError(f"non-finite number {name} in the output")
        return json.loads(text, parse_constant=refuse)
    rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    assert text.endswith("\r\n") and len(rows) >= 2
    assert all(len(r) == len(rows[0]) for r in rows)
    for cell in (c for r in rows[1:] for c in r):
        try:
            assert math.isfinite(float(cell)), cell
        except ValueError:
            assert re.fullmatch(r"[A-Za-z][\w-]*", cell), cell
    return rows


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cli_argvs())
def test_every_argv_gives_output_or_a_classified_error(argv):
    from darboux.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        if code == 0:
            assert err.getvalue() == ""
            _parsed_output(out, argv[argv.index("--format") + 1])
        else:
            assert code == 2, (code, err.getvalue())
            assert err.getvalue().count("\n") == 1 and json.loads(err.getvalue())["error"]
            assert not out.exists()
