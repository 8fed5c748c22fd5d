import ast
import math
import pathlib
import re

import numpy as np
import pytest

from darboux.classical import PhaseState, observable_value, residual_constant
from darboux.errors import (DomainError, LevelError, NoAdmissibleRootError, NoRootError,
                            ParamError, PoleError, UnsupportedError)
from darboux.families import FAMILIES
from darboux.geometry import (CHARTS, DIII, DIV, Chart, SpaceParams, chart_transform,
                              conformal_factor, validate_chart)
from darboux.potentials import PotentialSpec, potential_value, separated_problem
from darboux.specfun import ModelFamily, gamma_complex, model_domain, orthopoly_eval
from darboux.spectra import (QuantumNumbers, admissibility_check, asymptotic_spectrum,
                             quantization_residual, solve_quantization)
from darboux.wavefun import assemble_bound_state, default_grid, pick_energy

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
        # separations are keyed by chart; every assembly chart separates both
        # its axes, or is a pulled-back state
        assert set(rec.separations) <= set(CHARTS[rec.space]), name
        spec = PotentialSpec(SpaceParams(rec.space, *SPACE[rec.space]), name, COUPLINGS[name])
        for chart in rec.schemes:
            if chart not in rec.pullbacks:
                axis0, axis1 = separated_problem(spec, chart, QuantumNumbers(0, 0, chart))
                assert axis0 and axis1, (name, chart)


def test_one_form_per_family():
    # a record writes its form once, in the chart forms[0], which every other
    # real chart reaches through the chart maps; it may add only the continued
    # sections that no map reaches, and none if forms[0] is one of them
    for name, rec in FAMILIES.items():
        rows = CHARTS[rec.space]
        assert rec.forms and rec.forms[0] in rows, name
        assert all(c in rows and rows[c].to_uv is None for c in rec.forms[1:]), name
        assert rows[rec.forms[0]].to_uv is not None or len(rec.forms) == 1, name


# (a, b) of each space, and couplings at which every separation of a record can be built
SPACE = {DIII: (1.0, 1.0), DIV: (3.0, 1.0)}
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
    # the residual check and the default grids sample each factor on its
    # window, which lies in the factor's natural interval
    for name, rec in FAMILIES.items():
        spec = PotentialSpec(SpaceParams(rec.space, *SPACE[rec.space]), name, COUPLINGS[name])
        for chart in rec.separations:
            axes = separated_problem(spec, chart, QuantumNumbers(0, 0, chart))
            for axis, sep in enumerate(axes):
                lo, hi = sep.window(-3.7)
                assert math.isfinite(lo) and math.isfinite(hi) and lo < hi, (name, chart, axis)
                assert sep.domain[0] <= lo and hi <= sep.domain[1], (name, chart, axis)


def test_no_div_record_builds_its_own_separation():
    # every D_IV axis is a row of specfun.MODELS, built by one builder, and
    # requires its partner row's level
    tree = ast.parse((SRC / "families.py").read_text())
    hits = [f"families.py:{node.lineno}: {cls.name} builds Separated1D"
            for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name.startswith(DIV)
            for node in ast.walk(cls) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Separated1D"]
    assert not hits, "\n".join(hits)


def test_no_record_coerces_a_label():
    # QuantumNumbers holds n and l as Python ints, so a record reads them as they are
    tree = ast.parse((SRC / "families.py").read_text())
    hits = [f"families.py:{c.lineno}: {c.func.id}(...)" for c in ast.walk(tree)
            if isinstance(c, ast.Call) and getattr(c.func, "id", None) in ("int", "float")]
    assert not hits, "\n".join(hits)


def test_only_the_shared_builders_build_a_separation():
    # every separated axis of both surfaces, DIII_V3's complex-Morse angle
    # included, is a specfun.MODELS row built by _model_pair
    def builds(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and getattr(c.func, "attr", getattr(c.func, "id", None)) == "Separated1D"]

    tree = ast.parse((SRC / "families.py").read_text())
    scopes = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    scopes.update({f"{cls.name}.{fn.name}": fn for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)})
    callers = {name for name, node in scopes.items() if builds(node)}
    assert callers == {"_model_pair"}
    assert len(builds(tree)) == sum(len(builds(scopes[name])) for name in callers)


@pytest.mark.parametrize("axis", [0, 1])
def test_complex_index_root_is_a_domain_error(axis):
    # at E = 2.5 lam_3+ of DIV_V3 is complex (NaN): neither axis's rows exist there
    spec = PotentialSpec(SpaceParams(DIV, 3.0, 1.0), "DIV_V3", COUPLINGS["DIV_V3"])
    with pytest.raises(DomainError, match="finite"):
        qn = QuantumNumbers(0, 0, "degelliptic2")
        separated_problem(spec, "degelliptic2", qn)[axis].lam_req(2.5)


SP3, SP4 = SpaceParams(DIII, 1.0, 1.0), SpaceParams(DIV, 3.0, 1.0)
UV_STATE = PhaseState(Chart("uv", 0.3, 0.4), 0.7, -0.4)


def _v3_table(c2):
    return solve_quantization(PotentialSpec(SP3, "DIII_V3", {"c1": 1.2, "c2": c2}),
                              QuantumNumbers(0, 0, "polar"))


@pytest.mark.parametrize("call, error, match", [
    (lambda: _v3_table(0.0), ParamError, "implemented for c2 > 0"),
    (lambda: _v3_table(-0.5), ParamError, "implemented for c2 > 0"),
    (lambda: observable_value(SP3, "X3", UV_STATE), ParamError, "unknown observable 'X3'"),
    (lambda: asymptotic_spectrum(PotentialSpec(SP3, "DIII_V1", {"k1": 0.4}),
                                 QuantumNumbers(3, 0, "parabolic"), "minus"),
     UnsupportedError, "no asymptotic pair"),
    (lambda: residual_constant(PotentialSpec(SP3, "DIII_V5", {"v0": 0.5}), "R4", UV_STATE),
     UnsupportedError, "no implemented constant 'R4'"),
    (lambda: residual_constant(PotentialSpec(SP4, "DIV_V4", {"k0": 0.8}), "R1", UV_STATE),
     UnsupportedError, "no implemented constant 'R1'"),
    (lambda: quantization_residual(PotentialSpec(SP4, "DIV_V4", COUPLINGS["DIV_V4"]),
                                   QuantumNumbers(0, 0, "uv"), -1.0),
     UnsupportedError, "no polynomial quantization condition"),
    (lambda: asymptotic_spectrum(PotentialSpec(SP3, "DIII_V5", COUPLINGS["DIII_V5"]),
                                 QuantumNumbers(3, 0, "uv"), "middle"),
     ParamError, "unknown branch 'middle'"),
    (lambda: QuantumNumbers(-1, 0), ParamError, "n must be non-negative"),
    (lambda: gamma_complex(-2.0), PoleError, "gamma pole"),
    (lambda: ModelFamily("PT", {"alpha": -2.0, "beta": 0.5}), ParamError, "alpha, beta > -1"),
    (lambda: ModelFamily("XX", {}), ParamError, "unknown model family 'XX'"),
    (lambda: model_domain("nope"), ParamError, "unknown model family 'nope'"),
    (lambda: orthopoly_eval("hermite", -1, (), 0.3), ParamError, "non-negative integer"),
    (lambda: orthopoly_eval("chebyshev", 1, (), 0.3), ParamError,
     "unknown polynomial family 'chebyshev'"),
    (lambda: SpaceParams("DV", 1.0, 1.0), ParamError, "unknown family 'DV'"),
    (lambda: SpaceParams(DIII, 1.0, 1.0, hbar=0.0), ParamError, "must be positive"),
    (lambda: SP3.a_plus, ParamError, "a_plus is defined for D_IV only"),
    (lambda: SP3.a_minus, ParamError, "a_minus is defined for D_IV only"),
    (lambda: validate_chart(SP3, Chart("degelliptic2", 0.5, 0.5)), ParamError,
     "chart 'degelliptic2' unknown for DIII"),
    (lambda: chart_transform(SP3, Chart("uv", 0.5, 0.5), "degelliptic2"), ParamError,
     "chart 'degelliptic2' unknown for DIII"),
    (lambda: conformal_factor(SP3, "polar", 1.0, 0.0), UnsupportedError,
     "no conformal factor for chart 'polar'"),
    (lambda: assemble_bound_state(PotentialSpec(SP3, "DIII_V5", COUPLINGS["DIII_V5"]), "uv",
                                  QuantumNumbers(0, 1, "uv"), energy=math.nan),
     ParamError, "energy must be finite"),
], ids=["DIII_V3-c2-zero", "DIII_V3-c2-negative", "unknown-observable",
        "asymptotic-DIII_V1", "residual-constant-DIII_V5", "residual-constant-DIV_V4",
        "residual-DIV_V4", "asymptotic-middle-branch", "negative-n", "gamma-pole",
        "PT-alpha-below-minus-1", "unknown-model-tag", "unknown-model-domain",
        "negative-degree", "unknown-polynomial", "unknown-space", "hbar-zero",
        "a-plus-on-DIII", "a-minus-on-DIII", "DIV-chart-on-DIII", "transform-to-DIV-chart",
        "conformal-factor-polar", "energy-nan"])
def test_each_refused_input_raises_its_classified_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("name, qn, E", [
    ("DIV_V1", QuantumNumbers(0, 0, "uv"), 50.0),  # an index root is complex
    ("DIV_V3", QuantumNumbers(0, 0, "degelliptic2"), 5.0),  # above the top of the window
])
def test_an_energy_with_no_real_square_root_is_not_admissible(name, qn, E):
    rec = admissibility_check(PotentialSpec(SP4, name, COUPLINGS[name]), qn, E)
    assert (rec["sqrt_real"], rec["unsquared_sign"], rec["admissible"]) == (False, 0, False)


def test_default_grid_and_assembly_refuse_labels_of_another_chart_alike():
    # quantum numbers counted in uv do not label polar states; the DIV_V2
    # degelliptic2 pullback reads its uv count
    spec = PotentialSpec(SP3, "DIII_V5", COUPLINGS["DIII_V5"])
    qn = QuantumNumbers(0, 1, "uv")
    for call in (lambda: default_grid(spec, "polar", qn, -4.5),
                 lambda: assemble_bound_state(spec, "polar", qn, energy=-4.5)):
        with pytest.raises(ParamError, match="counted in scheme 'uv' do not label states in "
                                             "chart 'polar'"):
            call()
    div2 = PotentialSpec(SP4, "DIV_V2", COUPLINGS["DIV_V2"])
    q1, q2 = default_grid(div2, "degelliptic2", QuantumNumbers(0, 0, "uv"), 0.0, (9, 9))
    assert q1.shape == q2.shape == (9,)


@pytest.mark.parametrize("name, chart, axis, top", [
    ("DIV_V1", "uv", 0, 5),             # the Morse ladder of alpha/(2 hbar |omega|) = 6
    ("DIV_V2", "uv", 0, 1),             # the MPT ladder of (|k1|, |k2|) = (2, 6)
    ("DIV_V3", "degelliptic2", 1, 5),   # the MPT ladder of (lam_3+, lam_2+) at E = -3.7
])
def test_partner_past_its_ladder_is_a_level_error(name, chart, axis, top):
    # the partner of axis 0 is l, that of axis 1 is n
    spec = PotentialSpec(SpaceParams(DIV, 3.0, 1.0), name, COUPLINGS[name])

    def axis_at(partner):
        qn = QuantumNumbers(0, partner, chart) if axis == 0 else QuantumNumbers(partner, 0, chart)
        return separated_problem(spec, chart, qn)[axis]

    assert math.isfinite(axis_at(top).lam_req(-3.7))
    for partner in (top + 1, 30):
        with pytest.raises(LevelError):
            axis_at(partner).lam_req(-3.7)


# coupling ranges of the seeded identity draws, wide enough that most (n, l) <= 2
# have a picked root; alpha takes both signs
IDENTITY_COUPLINGS = {
    "DIII_V1": {"k1": (-2.0, 2.0), "k2": (-2.0, 2.0), "k3": (-2.0, 2.0)},
    "DIII_V2": {"alpha": (-3.0, 3.0), "k1": (-1.5, 1.5), "k2": (-1.5, 1.5)},
    "DIII_V3": {"alpha": (-3.0, 3.0), "c1": (1.5, 3.0), "c2": (0.2, 1.0)},
    "DIII_V4": {"d1": (-3.0, -0.2), "d2": (-3.0, -0.2), "omega": (0.5, 1.5)},
    "DIII_V5": {"v0": (0.0, 2.0)},
    "DIV_V1": {"alpha": (8.0, 16.0), "k1": (-1.0, 1.0), "k2": (-1.0, 1.0), "omega": (0.5, 1.5)},
    "DIV_V2": {"k1": (0.5, 2.0), "k2": (8.0, 12.0), "k3": (0.2, 1.0)},
    "DIV_V3": {"c1": (-1.0, 1.0), "c2": (-300.0, -50.0), "c3": (-1.0, 1.0)},
}

# (family, chart, bound): the bound is 10x the worst scaled residual over the
# seeded draws; DIV_V3's large terms (c2 down to -300) nearly cancel, hence its wider bound.
IDENTITY_PAIRS = [
    ("DIII_V1", "parabolic", 8.6e-15),
    ("DIII_V2", "parabolic", 5.3e-15),
    ("DIII_V5", "parabolic", 4.3e-15),
    ("DIV_V1", "uv", 1.1e-14),
    ("DIV_V1", "horospherical", 1.2e-14),
    ("DIV_V2", "uv", 6.4e-15),
    ("DIV_V3", "degelliptic2", 5.8e-12),
    ("DIII_V2", "uv", 5.7e-15),
    ("DIII_V2", "polar", 6.4e-15),
    ("DIII_V3", "polar", 4.3e-15),
    ("DIII_V4", "hyperbolic", 1.2e-14),
    ("DIII_V5", "hyperbolic", 5.3e-15),
    ("DIII_V5", "uv", 6.3e-15),
    ("DIII_V5", "polar", 3.9e-15),
]


def _identity_spec(rng, family):
    """A seeded spec of the family, at a random space, hbar and mass."""
    def draw(lo, hi):
        return float(rng.uniform(lo, hi))

    hbar, mass = draw(0.5, 1.5), draw(0.5, 2.0)
    if family.startswith(DIII):
        sp = SpaceParams(DIII, draw(0.5, 3.0), draw(0.2, 2.0), hbar=hbar, mass=mass)
    else:
        b = draw(0.2, 1.5)
        sp = SpaceParams(DIV, 2.0 * b + draw(0.2, 2.0), b, hbar=hbar, mass=mass)
    return PotentialSpec(sp, family, {k: draw(*r) for k, r in IDENTITY_COUPLINGS[family].items()})


def _identity_residual(spec, chart, qn, E):
    """The separation identity at the 11x9 interior points of the two windows,
    as max |lhs - sum of terms| over the largest term.  With U_i the rows'
    profiles and lam_i their required levels at E, and f the chart's metric
    factor: f (V - E) = U0 - lam0 + U1 - lam1 in a conformal chart; in polar,
    whose states carry rho^{-1/2}, rho^2 f (V - E) = rho^2 (U0 - lam0) +
    hbar^2/8m + U1 - lam1; in the D_III hyperbolic chart, whose grid is (ln mu,
    ln nu) and whose metric is signed, f (V - E) = U0 - lam0 - (U1 - lam1)."""
    sp = spec.space
    x, y = (g[1:-1] for g in default_grid(spec, chart, qn, E, (13, 11)))
    x, y = x[:, None], y[None, :]
    s0, s1 = separated_problem(spec, chart, qn)
    terms = [s0.profile(E)(x), -s0.lam_req(E), s1.profile(E)(y), -s1.lam_req(E)]
    if chart == "hyperbolic":
        x, y, terms[2:] = np.exp(x), np.exp(y), [-t for t in terms[2:]]
    lhs = CHARTS[sp.family][chart].factor(sp, x, y, 1.0) * (
        potential_value(spec, Chart(chart, x, y)) - E)
    if chart == "polar":
        lhs, terms = x * x * lhs, [x * x * terms[0], x * x * terms[1],
                                   sp.hbar ** 2 / (8.0 * sp.mass), *terms[2:]]
    scale = max(np.abs(t).max() for t in (lhs, *terms))
    return float(np.abs(lhs - sum(terms)).max() / scale)


def test_every_separation_states_the_hamiltonian_once():
    # a separation is right exactly when, at a root E and at every point of
    # the chart, the potential times the metric factor splits into the two
    # rows' profiles minus their required levels: an algebraic identity, with
    # no grid derivative, that ties the form, the metric, both rows, their
    # variable maps and the energy shift together.  Six seeded draws per pair
    # at n <= 2 and |l| <= 2 (l >= 0 where l numbers a ladder level), at the picked root
    rng = np.random.default_rng(16)
    for family, chart, bound in IDENTITY_PAIRS:
        worst, states = 0.0, 0
        for _ in range(6):
            spec = _identity_spec(rng, family)
            for n in range(3):
                for l in range(-2 if chart in FAMILIES[family].signed_l else 0, 3):
                    qn = QuantumNumbers(n, l, chart)
                    try:
                        E = pick_energy(spec, qn)
                    except (NoAdmissibleRootError, NoRootError):
                        continue
                    worst = max(worst, _identity_residual(spec, chart, qn, E))
                    states += 1
        assert states >= 20 and worst < bound, (family, chart, states, worst)


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


def _old_morse_factor(z, s, n, sigma):
    """z^s e^{-sigma z/2} L_n^{2s}(sigma z), as the D_III Morse log-axes once took it."""
    with np.errstate(over="ignore", invalid="ignore"):
        lag = orthopoly_eval("laguerre", n, (2.0 * s,), sigma * z)
        return z ** s * np.exp(-0.5 * sigma * z) * lag


def _old_morse_axis(spec, chart, partner, axis, E, n, x):
    """The factor of a D_III Morse log-axis as its hand-built separation wrote
    it out: the uv index from the partner, sigma = -1 on uv and on V5's ln mu."""
    sp = spec.space
    a, b, m, hb = sp.a, sp.b, sp.mass, sp.hbar
    hq = hb * hb / (2.0 * m)
    if chart == "uv":
        mu = FAMILIES[spec.family]._uv_index(spec, partner)
        return _old_morse_factor(math.sqrt(-8.0 * m * b * E) / hb * np.exp(-1 * x), mu, n, -1)
    if spec.family == "DIII_V4":
        om = spec.c("omega")
        w2 = m * om * om - b * E
        v0 = math.sqrt(m * w2) / hb
        num = (a * E - spec.c("d1")) if axis == 0 else -(a * E + spec.c("d2"))
        return _old_morse_factor(2.0 * v0 * np.exp(x), num / w2 * v0 - n - 0.5, n, 1)
    v0c = spec.c("v0")
    ktilde = (hq * v0c * v0c - a * E) * math.sqrt(-m / (E * b)) / hb
    return _old_morse_factor(2.0 * (math.sqrt(-m * E * b) / hb) * np.exp(x), ktilde - n - 0.5,
                             n, -1 if axis == 0 else 1)


def _factors(spec, chart, qn, E, grid):
    """(new, old) samples of each Morse log-axis of the chart on its grid axis
    (the uv angle is not one)."""
    axes = separated_problem(spec, chart, qn)
    for axis, sep in enumerate(axes[:1] if chart == "uv" else axes):
        partner, n = (qn.l, qn.n) if axis == 0 else (qn.n, qn.l)
        yield sep.factor(E)(grid[axis]), _old_morse_axis(spec, chart, partner, axis, E, n,
                                                          grid[axis])


MORSE_GATES = [  # the criterion-7 gates in the D_III Morse charts
    ("DIII_V2", {"alpha": 0.0, "k1": 0.3, "k2": 0.7}, (1, 0, "uv"), -12.5),
    ("DIII_V4", {"d1": -1.5, "d2": -0.5, "omega": 1.0}, (0, 0, "hyperbolic"), -3.0),
    ("DIII_V5", {"v0": 0.0}, (0, 1, "uv"), -4.5),
    ("DIII_V5", {"v0": 0.0}, (1, 1, "hyperbolic"), -2.25),
]


@pytest.mark.parametrize("name, coup, qn, E", MORSE_GATES)
def test_morse_rows_are_the_old_log_axes_at_the_gates(name, coup, qn, E):
    spec = PotentialSpec(SpaceParams(DIII, 1.0, 1.0), name, coup)
    qn = QuantumNumbers(*qn)
    grid = default_grid(spec, qn.scheme, qn, E, (401, 301))
    for new, old in _factors(spec, qn.scheme, qn, E, grid):
        assert new.tobytes() == old.tobytes()
    if qn.scheme == "uv":  # the pseudo-level the angle requires keeps its bits
        hq, mu = 0.5, FAMILIES[name]._uv_index(spec, qn.l)
        assert separated_problem(spec, "uv", qn)[0].lam_req(E) == -hq * mu ** 2


def test_morse_rows_are_the_old_log_axes_at_principal_roots():
    # the uv and V5 hyperbolic rows read their index from E, the old axes from
    # the partner or by another rounding: they agree where the closed form's
    # sign holds, level_sum(E) = -sqrt(s) hbar w M < 0; DIII_V4's factors are
    # the same expressions at every root.  Over 160 coupling sets the median
    # difference is 0 and the 99th percentile 5e-15; the worst, 2.7e-13, are
    # V5's hyperbolic l = 2 factors at shallow roots, where s ~ -1 and
    # L_2^{2s}(z) ~ z^2/2 cancels (there both sit about 1e-13 from a 40-digit value)
    rng = np.random.default_rng(34)
    worst, count = 0.0, 0
    for _ in range(6):
        sp = SpaceParams(DIII, rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0),
                         mass=rng.uniform(0.5, 2.0), hbar=rng.uniform(0.5, 1.5))
        for name, coup, chart in [
            ("DIII_V2", {"alpha": rng.uniform(-3, 3), "k1": rng.uniform(-2, 2),
                         "k2": rng.uniform(-2, 2)}, "uv"),
            ("DIII_V4", {"d1": rng.uniform(-4, 1), "d2": rng.uniform(-4, 1),
                         "omega": rng.uniform(0.3, 2)}, "hyperbolic"),
            ("DIII_V5", {"v0": rng.uniform(0, 2)}, "uv"),
            ("DIII_V5", {"v0": rng.uniform(0, 2)}, "hyperbolic")]:
            spec, rec = PotentialSpec(sp, name, coup), FAMILIES[name]
            for n in range(3):
                for l in range(3):
                    qn = QuantumNumbers(n, l, chart)
                    for r in solve_quantization(spec, qn).admissible:
                        E = r["E"]
                        if not (r["sqrt_real"] and r["satisfies_unsquared"]) or (
                                name != "DIII_V4" and rec.level_sum(spec, E) >= 0):
                            continue
                        grid = default_grid(spec, chart, qn, E, (201, 3))
                        for new, old in _factors(spec, chart, qn, E, grid):
                            if name == "DIII_V4":
                                assert new.tobytes() == old.tobytes()
                            if np.isfinite(old).all() and np.abs(old).max() > 0:
                                worst = max(worst, np.abs(new - old).max() / np.abs(old).max())
                                count += 1
    assert count > 200
    assert worst < 1e-12
