import ast
import json
import math
import pathlib
import subprocess
import sys

import pytest

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
    r1 = run_cli(["verify", "--suite", "spectra"], a)
    r2 = run_cli(["verify", "--suite", "spectra"], b)
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["records"][0]["pass"] is True


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
], ids=["grid-12y12", "grid-0x0", "u-range-1", "v-range-0:x", "n-3..1", "l-a..b",
        "n-0..1..2", "wavefunction-grid-12x", "wavefunction-n-x", "wavefunction-l-x"])
def test_malformed_ranges_and_grids_exit_2(argv, tmp_path, capsys):
    from darboux.cli import main

    out = tmp_path / "x.out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParamError"
    assert not out.exists()


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


def test_classical_singular_start_point_exit_2(tmp_path):
    out = tmp_path / "c.json"
    r = run_cli(["classical", "--space", "DIII", "--a", "1", "--b", "1", "--potential", "V2",
                 "--alpha", "0.3", "--k1", "0.3", "--k2", "0.7", "--q1", "0.3", "--q2", "0.0",
                 "--p1", "0.7", "--p2", "-0.4", "--t-final", "1"], out)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "DomainError"
    assert not out.exists()


# the jobs that need numpy only; classical and verify also load scipy.integrate.
# The DIV_V1 state is a product of a Poeschl-Teller and a Morse eigenfunction,
# whose norms are closed forms
NUMPY_ONLY = {name: JOBS[name] for name in ("curvature.csv", "spectrum.json",
                                            "wavefunction.json")}
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
    CLASSICAL + ["--tol", "-1"],
    CLASSICAL + ["--tol", "0"],
    CLASSICAL + ["--tol", "nan"],
    CLASSICAL + ["--tol", "1e-15"],
    _with("classical.json", p1="nan"),
    _with("classical.json", p2="inf"),
], ids=["t-final-0", "t-final-nan", "t-final--1", "t-final-inf", "samples-0", "samples--3",
        "tol--1", "tol-0", "tol-nan", "tol-1e-15", "p1-nan", "p2-inf"])
def test_classical_bad_inputs_exit_2(argv, tmp_path, capsys):
    from darboux.cli import main

    out = tmp_path / "c.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParamError"
    assert not out.exists()
