import ast
import math
import pathlib
import re

from darboux.families import FAMILIES
from darboux.geometry import DIII, DIV, SpaceParams
from darboux.potentials import PotentialSpec, separated_problem

SRC = pathlib.Path(__file__).parent.parent / "src" / "darboux"
FAMILY_NAME = re.compile(r"(DIII|DIV)_V\d")
# the modules that may name a family: the records, and the pinned inputs of
# the verification suites
NAMED_ONLY_AS_INPUT = ("verify.py",)


def _family_literals(node):
    return [c for c in ast.walk(node) if isinstance(c, ast.Constant)
            and isinstance(c.value, str) and FAMILY_NAME.fullmatch(c.value)]


def _space_prefixes(call):
    args = [c for a in call.args for c in ast.walk(a) if isinstance(c, ast.Constant)]
    return any(c.value in (DIII, DIV) for c in args)


def test_no_family_branch_outside_families():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "families.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and _family_literals(node):
                hits.append(f"{path.name}:{node.lineno}: compares with a family name")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "startswith" and _space_prefixes(node)):
                hits.append(f"{path.name}:{node.lineno}: tests a family name's space prefix")
        if path.name not in NAMED_ONLY_AS_INPUT:
            hits += [f"{path.name}:{c.lineno}: names family {c.value!r}"
                     for c in _family_literals(tree)]
    assert not hits, "\n".join(hits)


def test_one_record_per_family():
    assert sorted(FAMILIES) == [f"DIII_V{i}" for i in range(1, 6)] + [
        f"DIV_V{i}" for i in range(1, 5)]
    for name, rec in FAMILIES.items():
        assert rec.name == name
        assert rec.space == name.split("_")[0]
        # every assembly chart is separated, an angle or a pulled-back state
        for chart in rec.schemes:
            assert ((chart, 0) in rec.separations and (
                (chart, 1) in rec.separations or chart in rec.angles)) or chart in rec.pullbacks


# couplings at which every separation of a record can be built
COUPLINGS = {
    "DIII_V1": {"k1": 0.4, "k2": 0.3, "k3": 0.2},
    "DIII_V2": {"alpha": 1.0, "k1": 0.3, "k2": 0.7},
    "DIII_V3": {"alpha": 0.5, "c1": 1.2, "c2": 0.8},
    "DIII_V4": {"d1": -1.5, "d2": -0.5, "omega": 1.0},
    "DIII_V5": {"v0": 0.6},
    "DIV_V1": {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0},
    "DIV_V2": {"k1": 2.0, "k2": 6.0, "k3": 0.5},
    "DIV_V3": {"c1": 0.3, "c2": -200.0, "c3": 0.2},
    "DIV_V4": {"k0": 0.7},
}


def test_every_separation_has_a_finite_window():
    # the residual check and the default grids sample each factor on its window
    for name, rec in FAMILIES.items():
        a, b = (1.0, 1.0) if rec.space == DIII else (3.0, 1.0)
        spec = PotentialSpec(SpaceParams(rec.space, a, b), name, COUPLINGS[name])
        for chart, axis in rec.separations:
            lo, hi = separated_problem(spec, chart, 0, axis).window(-3.7, 0)
            assert math.isfinite(lo) and math.isfinite(hi) and lo < hi, (name, chart, axis)


def _set_arguments(paths):
    """What the calls in ``paths`` pass: the (callee, keyword) pairs, and per
    callee the most positional arguments (a starred argument counts as all)."""
    keywords, positional = set(), {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            keywords |= {(name, kw.arg) for kw in node.keywords}
            n = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
            positional[name] = max(positional.get(name, 0), n)
    return keywords, positional


def test_every_keyword_default_is_set():
    # a default that no call overrides is a constant, not an option; this
    # holds for private functions and methods too
    tests = pathlib.Path(__file__).parent
    keywords, positional = _set_arguments(sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py")))
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [(0, d) for d in tree.body if isinstance(d, ast.FunctionDef)]
        defs += [(1, d) for c in tree.body if isinstance(c, ast.ClassDef)
                 for d in c.body if isinstance(d, ast.FunctionDef)]
        for skip, d in defs:
            args = (d.args.posonlyargs + d.args.args)[skip:]  # a method's self
            first = len(args) - len(d.args.defaults)
            for i, arg in enumerate(args[first:], start=first):
                if (d.name, arg.arg) not in keywords and positional.get(d.name, 0) <= i:
                    unset.append(f"{path.name}:{d.lineno}: {d.name}({arg.arg})")
            for arg, default in zip(d.args.kwonlyargs, d.args.kw_defaults):
                if default is not None and (d.name, arg.arg) not in keywords:
                    unset.append(f"{path.name}:{d.lineno}: {d.name}({arg.arg})")
    assert not unset, "\n".join(unset)
