"""Command-line front end: batch jobs serialized as JSON or CSV.

Commands: curvature maps, spectrum tables, wavefunction grids, classical
diagnostics, and the verification suites.  Outputs are deterministic (shortest
round-trip decimals in JSON, 17 significant digits in CSV) and written
atomically.  Exit codes are 0 (success), 2 (validation error, arithmetic past
a double's range (an ``ArithmeticError``: numpy's overflow, division by zero
and invalid operations raise inside a job), a non-finite number in the output,
or a spectrum table none of whose records has a root), 3 (a failed
verification suite) and 4 (an internal error: any other exception).  Errors go
to stderr as one line of JSON.  A spectrum record without a root carries an
``error`` object and empty candidate lists, counted in ``failed_records``.

Only the standard library and ``errors`` load with this module; each command
imports the layers it runs, so ``--help`` and argument errors load no numpy.
"""

import argparse
import json
import math
import os
import re
import sys
import tempfile

from . import __version__
from .errors import DarbouxError, NoRootError, ParamError

COUPLING_FLAGS = ("k1", "k2", "k3", "alpha", "c1", "c2", "c3", "d1", "d2", "omega", "v0", "k0")
# the largest --grid (n1 n2 points) and spectrum table (records), checked before
# anything is allocated; at these caps a job takes 5-12 s and at most 0.65 GiB
MAX_GRID_POINTS = 1_000_000
MAX_RECORDS = 100_000


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ParamError, and which reads a
    negative number in exponent form, such as -1e-3, as a value (argparse
    itself reads -0.001 as one, but -1e-3 as an unknown option).  Its
    subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)

    def error(self, message):
        raise ParamError(message)


def _add_space_args(p):
    p.add_argument("--space", required=True, choices=("DIII", "DIV"))
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)


def _add_coupling_args(p):
    p.add_argument("--potential", required=True,
                   help="family name, e.g. V5 (on the chosen space)")
    for c in COUPLING_FLAGS:
        p.add_argument(f"--{c}", type=float, default=None)


def _add_out_args(p):
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _space_of(args):
    from .geometry import SpaceParams

    return SpaceParams(args.space, args.a, args.b, args.hbar, args.mass)


def _spec_of(args):
    from .potentials import PotentialSpec

    coup = {c: getattr(args, c) for c in COUPLING_FLAGS if getattr(args, c) is not None}
    return PotentialSpec(_space_of(args), f"{args.space}_{args.potential}", coup)


def _parse_int(text: str) -> int:
    """One integer, such as a quantum number or the end of a range."""
    try:
        return int(text)
    except ValueError:
        raise ParamError(f"expected an integer, got {text!r}") from None


def _parse_range(text: str):
    """Inclusive 'a..b' integer range of at most MAX_RECORDS values, or a single integer."""
    parts = text.split("..")
    lo, hi = _parse_int(parts[0]), _parse_int(parts[-1])
    if len(parts) > 2 or hi < lo:
        raise ParamError(f"range {text!r} is malformed or empty")
    if hi - lo >= MAX_RECORDS:
        raise ParamError(f"range {text!r} holds more than {MAX_RECORDS} values")
    return list(range(lo, hi + 1))


def _parse_grid(text: str):
    """'N1xN2' grid shape with positive sizes and at most MAX_GRID_POINTS points."""
    try:
        n1, n2 = (int(t) for t in text.lower().split("x"))
    except ValueError:
        raise ParamError(f"malformed grid {text!r}: expected N1xN2") from None
    if n1 < 1 or n2 < 1:
        raise ParamError(f"grid {text!r} is empty")
    if n1 * n2 > MAX_GRID_POINTS:
        raise ParamError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return n1, n2


def _parse_span(text, default):
    """Float interval 'lo:hi', or ``default`` when no text is given."""
    if text is None:
        return default
    try:
        lo, hi = (float(t) for t in text.split(":"))
    except ValueError:
        raise ParamError(f"malformed span {text!r}: expected lo:hi") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParamError(f"span {text!r} must have finite ends")
    return lo, hi


def _fmt17(x) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".darboux-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, header: dict, records: list, columns=None):
    if args.format == "json":
        try:
            text = json.dumps({"header": header, "records": records}, sort_keys=True,
                              allow_nan=False) + "\n"
        except ValueError:
            raise ParamError("the output holds a non-finite number") from None
    else:
        columns = columns or sorted({k for r in records for k in r})
        lines = [",".join(columns)]
        for r in records:
            cells = []
            for c in columns:
                v = r.get(c, "")
                if isinstance(v, (list, dict)) or isinstance(v, float) and not math.isfinite(v):
                    raise ParamError(f"column {c} holds a list or the non-finite number {v!r:.40}")
                cells.append(_fmt17(v) if isinstance(v, (int, float)) and not isinstance(v, bool)
                             else str(v))
            lines.append(",".join(cells))
        text = "\r\n".join(lines) + "\r\n"
    _atomic_write(args.out, text)


def _header(args, command: str, spec=None, **extra) -> dict:
    h = {"tool_version": __version__, "command": command}
    if getattr(args, "space", None) is not None:
        h["space"] = {"family": args.space, "a": args.a, "b": args.b,
                      "hbar": args.hbar, "mass": args.mass}
    if spec is not None:
        h["potential"] = spec.family
        h["couplings"] = dict(sorted(spec.couplings.items()))
    h.update(extra)
    return h


def cmd_curvature(args) -> int:
    import numpy as np

    from .geometry import Chart, curvature_closed, curvature_numeric

    sp = _space_of(args)
    n1, n2 = _parse_grid(args.grid)
    u_default = (-1.0, 1.0) if args.space == "DIII" else (0.1 * math.pi / 2, 0.9 * math.pi / 2)
    u_lo, u_hi = _parse_span(args.u_range, u_default)
    v_lo, v_hi = _parse_span(args.v_range, (0.0, 1.0))
    us = np.linspace(u_lo, u_hi, n1)
    vs = np.linspace(v_lo, v_hi, n2)
    gs = curvature_numeric(sp, Chart("uv", *np.meshgrid(us, vs, indexing="ij")), args.step)
    records = []
    for i, u in enumerate(us):
        g_closed = curvature_closed(sp, (float(u), 0.0))  # the closed form reads only u
        for j, v in enumerate(vs):
            records.append({"u": float(u), "v": float(v), "G": float(gs[i, j]),
                            "G_closed": g_closed})
    _emit(args, _header(args, "curvature", grid=args.grid, step=args.step),
          records, columns=["u", "v", "G", "G_closed"])
    return 0


def cmd_spectrum(args) -> int:
    from .spectra import QuantumNumbers, solve_quantization

    spec = _spec_of(args)
    scheme = args.scheme.lower().replace("-", "")
    ns, ls = _parse_range(args.n), _parse_range(args.l)
    if len(ns) * len(ls) > MAX_RECORDS:
        raise ParamError(f"{len(ns)} x {len(ls)} records exceed the {MAX_RECORDS} of a table")

    failed = []

    def one(n, l):
        qn = QuantumNumbers(n, l, scheme)
        try:
            roots = solve_quantization(spec, qn)
        except NoRootError as exc:
            # a record without a root does not abort the table; its error drops the
            # traceback, whose first frame (this one) holds `failed`: a reference cycle
            failed.append(exc.with_traceback(None))
            return {"n": n, "l": l, "candidates_re": [], "candidates_im": [], "admissible": [],
                    "error": {"type": type(exc).__name__, "message": str(exc)}}
        return {
            "n": n,
            "l": l,
            "candidates_re": [z.real for z in roots.candidates],
            "candidates_im": [z.imag for z in roots.candidates],
            "admissible": roots.admissible,
        }

    records = [one(n, l) for n in ns for l in ls]
    if len(failed) == len(records):
        raise failed[0]
    extra = {"failed_records": len(failed)} if failed else {}
    _emit(args, _header(args, "spectrum", spec, scheme=scheme, **extra), records)
    return 0


def cmd_wavefunction(args) -> int:
    from .spectra import QuantumNumbers
    from .wavefun import assemble_bound_state, default_grid, hamiltonian_residual, pick_energy

    spec = _spec_of(args)
    # the chart fixes the counting scheme of the quantum numbers
    qn = QuantumNumbers(_parse_int(args.n), _parse_int(args.l), args.chart)
    energy = args.energy if args.energy is not None else pick_energy(spec, qn)
    n1, n2 = _parse_grid(args.grid)
    grid = default_grid(spec, args.chart, qn, energy, (n1, n2))
    field = assemble_bound_state(spec, args.chart, qn, grid=grid, energy=energy)
    resid = hamiltonian_residual(field)
    records = []
    for i, x in enumerate(field.q1):
        for j, y in enumerate(field.q2):
            records.append({"q1": float(x), "q2": float(y),
                            "re": float(field.values[i, j].real),
                            "im": float(field.values[i, j].imag)})
    _emit(args, _header(args, "wavefunction", spec, scheme=qn.scheme, chart=args.chart,
                        n=qn.n, l=qn.l, energy=energy,
                        hamiltonian_residual=resid),
          records, columns=["q1", "q2", "re", "im"])
    return 0


def cmd_classical(args) -> int:
    from .classical import (PhaseState, algebra_check, hamiltonian_flow,
                            hamiltonian_value, observable_value)
    from .geometry import Chart

    sp = _space_of(args)
    spec = _spec_of(args) if args.potential else None
    st0 = PhaseState(Chart(args.chart, args.q1, args.q2), args.p1, args.p2)
    ts, traj = hamiltonian_flow(sp, spec, st0, args.t_final, tol=args.tol, n_out=args.samples)
    values = {"t": ts, "q1": traj.chart.q1, "q2": traj.chart.q2, "p1": traj.p1, "p2": traj.p2,
              "H": hamiltonian_value(sp, spec, traj)}
    if args.chart == "uv":
        values.update((obs, observable_value(sp, obs, traj)) for obs in ("H0", "X1", "X2", "K"))
    records = [dict(zip(values, map(float, row))) for row in zip(*values.values())]
    alg = algebra_check(sp, st0) if args.chart == "uv" else {}
    _emit(args, _header(args, "classical", spec, tol=args.tol,
                        t_final=args.t_final, algebra_at_start=alg), records)
    return 0


def cmd_verify(args) -> int:
    from . import verify as vf

    suites = {
        "building-blocks": vf.suite_building_blocks,
        "curvature": vf.suite_curvature,
        "spectra": vf.suite_spectra,
        "classical": vf.suite_classical,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    report = {}
    ok = True
    for nm in names:
        rep = suites[nm]()
        report[nm] = rep
        ok = ok and rep["pass"]
    _emit(args, _header(args, "verify", suite=args.suite),
          [{"suite": k, **{kk: vv for kk, vv in v.items() if kk != "details"}}
           for k, v in report.items()])
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="darboux",
                 description="Superintegrable systems on the Darboux surfaces of type III and IV")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="Gaussian curvature map on the (u, v) chart")
    _add_space_args(p)
    p.add_argument("--grid", default="50x50")
    p.add_argument("--u-range", default=None, help="lo:hi")
    p.add_argument("--v-range", default=None, help="lo:hi")
    p.add_argument("--step", type=float, default=1e-3)
    _add_out_args(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("spectrum", help="bound-state quantization tables")
    _add_space_args(p)
    _add_coupling_args(p)
    p.add_argument("--scheme", default="uv")
    p.add_argument("--n", default="0..3", help="inclusive range a..b")
    p.add_argument("--l", default="0..3")
    _add_out_args(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="sampled 2D bound state on a chart grid")
    _add_space_args(p)
    _add_coupling_args(p)
    p.add_argument("--chart", default="uv")
    p.add_argument("--n", default="0")
    p.add_argument("--l", default="0")
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--grid", default="40x40")
    _add_out_args(p)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("classical", help="Hamiltonian flow and algebra diagnostics")
    _add_space_args(p)
    p.add_argument("--potential", default=None)
    for c in COUPLING_FLAGS:
        p.add_argument(f"--{c}", type=float, default=None)
    p.add_argument("--chart", default="uv")
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--q2", type=float, required=True)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=101)
    _add_out_args(p)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("verify", help="run a numerical verification suite")
    p.add_argument("--suite", default="all",
                   choices=["all", "building-blocks", "curvature", "spectra", "classical"])
    _add_out_args(p)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        import numpy as np  # once the arguments parse: --help loads no numpy
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # FloatingPointError
            return args.func(args)
    except SystemExit:  # --help; a parse error raises ParamError instead
        return 0
    except (DarbouxError, ArithmeticError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # an internal error, apart from a failed verification
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
