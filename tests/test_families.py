import ast
import pathlib
import re

from darboux.families import FAMILIES
from darboux.geometry import DIII, DIV

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
