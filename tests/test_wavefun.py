import math
import random

import numpy as np
import pytest

from darboux.errors import (
    DivergentNormError,
    GridError,
    NoAdmissibleRootError,
    ParamError,
    ResolutionError,
    UnsupportedChartError,
)
from darboux.families import FAMILIES
from darboux.geometry import DIII, DIV, Chart, SpaceParams, chart_transform
from darboux.potentials import PotentialSpec, separated_problem
from darboux.spectra import QuantumNumbers
from darboux.wavefun import (
    WaveField,
    assemble_bound_state,
    default_grid,
    hamiltonian_residual,
    normalize_weighted,
    pick_energy,
)

import test_acceptance

SP1 = SpaceParams(DIII, 1.0, 1.0)
SP4 = SpaceParams(DIV, 3.0, 1.0)


def weighted_overlap(f1: WaveField, f2: WaveField) -> complex:
    """Weighted inner product of two fields on the same grid (Simpson's rule)."""
    from scipy.integrate import simpson

    from darboux.wavefun import _sqrtg_grid

    if f1.chart != f2.chart or f1.values.shape != f2.values.shape:
        raise GridError("overlap requires matching grids")
    w = _sqrtg_grid(f1.spec.space, f1.chart, f1.q1, f1.q2)
    dens = np.conj(f1.values) * f2.values * w
    return complex(simpson(simpson(dens, x=f1.q2, axis=1), x=f1.q1))

# the criterion-7 gates, the DIII_V5 ones first as the coupN of the test ids number them
GATES = sorted(test_acceptance.GATES, key=lambda g: g[0] != "DIII_V5")


@pytest.mark.parametrize("family,coup,chart,qn,energy", GATES)
def test_pde_residual_gate(family, coup, chart, qn, energy):
    sp = SP1 if family.startswith("DIII") else SP4
    spec = PotentialSpec(sp, family, coup)
    q = QuantumNumbers(*qn)
    e = energy if energy is not None else pick_energy(spec, q)
    if chart == "degelliptic2" and family == "DIV_V2":
        field = assemble_bound_state(spec, chart, q, energy=e)
    else:
        grid = default_grid(spec, chart, q, e, (401, 301))
        field = assemble_bound_state(spec, chart, q, grid=grid, energy=e)
    assert hamiltonian_residual(field) < 1e-5


ALPHA_STATES = [
    ("DIII_V2", {"k1": 0.3, "k2": 0.7}, "uv", (1, 0)),
    ("DIII_V2", {"k1": 0.3, "k2": 0.7}, "polar", (1, 0)),
    ("DIII_V2", {"k1": 0.3, "k2": 0.7}, "parabolic", (1, 1)),
    ("DIII_V3", {"c1": 1.2, "c2": 0.8}, "polar", (0, 0)),
]


def test_picked_diii_states_solve_the_hamiltonian_at_every_alpha():
    # the potential carries -alpha over the D_III factor and the condition
    # reads a E + alpha = -hbar w N: one attractive alpha, so the picked state
    # solves the 2D Hamiltonian away from alpha = 0 too
    rng = random.Random(40)
    alphas = [0.0] + [rng.uniform(-3.0, 3.0) for _ in range(6)]
    raised = []
    for al in alphas:
        for family, coup, chart, nl in ALPHA_STATES:
            spec = PotentialSpec(SP1, family, {"alpha": al, **coup})
            q = QuantumNumbers(*nl, chart)
            try:
                e = pick_energy(spec, q)
            except NoAdmissibleRootError:
                raised.append((family, al))
                continue
            grid = default_grid(spec, chart, q, e, (401, 301))
            field = assemble_bound_state(spec, chart, q, grid=grid, energy=e)
            assert hamiltonian_residual(field) <= 1e-5, (family, chart, al)
    # DIII_V3's (0, 0) polar roots are real where B (B + 4 a alpha) >= 0, B =
    # hbar^2 M^2 b / 2m = 0.648; each sampled alpha < 0 lies below -B/4a
    assert min(alphas) < 0.0 < max(alphas)
    assert raised == [("DIII_V3", al) for al in alphas if al < 0.0]


def test_diii_v3_angle_row_keeps_the_hand_built_bits():
    # the angle was typed by hand as the cMorse level l in 2 phi at the space's
    # mass, requiring hq idx^2 with idx the index at which the radius solves at
    # level n; the row gives the same bits at the gate
    from darboux import families, specfun as sf
    from darboux.potentials import separated_problem

    spec = PotentialSpec(SP1, "DIII_V3", {"alpha": 0.0, "c1": 1.2, "c2": 0.8})
    q = QuantumNumbers(0, 0, "polar")
    e = pick_energy(spec, q)
    _, phi = default_grid(spec, "polar", q, e, (401, 301))
    _, sep = separated_problem(spec, "polar", q)
    rec = FAMILIES["DIII_V3"]
    C1, C2 = rec._cmorse(spec)
    fam = sf.ModelFamily(sf.CMORSE, {"c1": C1, "c2": C2}, hbar=SP1.hbar, mass=SP1.mass)
    old = sf.model_eigenfunction(fam, int(q.l), 2.0 * np.asarray(phi))
    assert np.asarray(sep.factor(e)(phi)).tobytes() == old.tobytes()
    hq = SP1.hbar ** 2 / (2.0 * SP1.mass)
    idx = abs(rec.level_sum(spec, e)) / (SP1.hbar * families._omega_of(spec, e)) - 2 * q.n - 1
    assert sep.lam_req(e) == hq * idx ** 2
    # the circle, sampled less 0.05 at each end
    assert sep.domain == (0.0, 2.0 * math.pi) and sep.window(e) == (0.05, 2.0 * math.pi - 0.05)


def test_diii_v3_angle_lives_on_the_circle_where_its_factor_is_not_single_valued():
    # the polar angle's row declares the circle (0, 2 pi); over pi, one period of its
    # profile, the factor gains e^{-2 pi i mu}, mu = 2 C2/C1 - l - 1/2, so it does not
    # return to itself around the circle.  Which boundary condition holds stays open.
    spec = PotentialSpec(SP1, "DIII_V3", {"alpha": 0.0, "c1": 1.2, "c2": 0.8})
    q = QuantumNumbers(0, 0, "polar")
    e = pick_energy(spec, q)
    _, sep = separated_problem(spec, "polar", q)
    assert sep.domain == (0.0, 2.0 * math.pi)
    C1, C2 = FAMILIES["DIII_V3"]._cmorse(spec)
    mu = 2.0 * C2 / C1 - q.l - 0.5
    assert mu == pytest.approx(0.0692, abs=5e-5)
    phi = np.linspace(0.0, math.pi, 201)
    factor = sep.factor(e)
    here, there = np.asarray(factor(phi)), np.asarray(factor(phi + math.pi))
    assert np.abs(there - np.exp(-2j * math.pi * mu) * here).max() <= 1e-14 * np.abs(here).max()
    assert abs(np.exp(-4j * math.pi * mu) - 1.0) == pytest.approx(0.84, abs=5e-3)


@pytest.mark.parametrize("family,coup,chart,qn,energy", GATES)
def test_default_grid_builds_no_factor(family, coup, chart, qn, energy, monkeypatch):
    # the windows come from the rows, so a grid needs no model family, and an
    # assembly on the default grid builds its two factors once; the grid and
    # the factors each take both axes from one separation of the state
    from darboux import specfun as sf, wavefun
    from darboux.wavefun import _factor_pair

    sp = SP1 if family.startswith("DIII") else SP4
    spec, q = PotentialSpec(sp, family, coup), QuantumNumbers(*qn)
    e = energy if energy is not None else pick_energy(spec, q)
    built, model = [], sf.ModelFamily
    monkeypatch.setattr(sf, "ModelFamily", lambda *a, **k: built.append(a[0]) or model(*a, **k))
    separated, separate = [], wavefun.separated_problem
    monkeypatch.setattr(wavefun, "separated_problem",
                        lambda *a: separated.append(a[1]) or separate(*a))
    pulled = chart in FAMILIES[family].pullbacks
    default_grid(spec, chart, q, e)
    assert built == [] and len(separated) == (0 if pulled else 1)
    _factor_pair(spec, "uv" if pulled else chart, q, e)
    pair = len(built)
    assert pair >= 1
    del separated[:]
    assemble_bound_state(spec, chart, q, energy=e)
    assert len(built) == 2 * pair
    assert separated == (["uv"] if pulled else [chart, chart])  # default_grid, then the factors


def test_div_v3_picks_the_root_that_separates():
    # not -182.575625, a root of 2(n + l) + lam_1- - lam_2- - 2 = 0: no
    # product state, its residual is 1.07
    spec = PotentialSpec(SpaceParams(DIV, 4.0, 1.0), "DIV_V3", {"c1": 0.1, "c2": -50.0, "c3": -0.2})
    q = QuantumNumbers(0, 0, "degelliptic2")
    e = pick_energy(spec, q)
    assert e == -1.995839024938
    grid = default_grid(spec, "degelliptic2", q, e, (401, 301))
    assert hamiltonian_residual(assemble_bound_state(spec, "degelliptic2", q, grid=grid, energy=e)) < 1e-5


def test_residual_fourth_order_convergence():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    qn = QuantumNumbers(0, 1, "uv")
    r = []
    for shape in ((101, 81), (201, 161), (401, 321)):
        g = default_grid(spec, "uv", qn, -4.5, shape)
        r.append(hamiltonian_residual(assemble_bound_state(spec, "uv", qn, grid=g, energy=-4.5)))
    assert r[0] / r[1] >= 8.0
    assert r[1] / r[2] >= 8.0


def test_constant_field_flat_space_zero_energy():
    sp = SpaceParams(DIII, 1.0, 0.0)
    spec = PotentialSpec(sp, "DIII_V5", {"v0": 0.0})
    q1 = np.linspace(-1, 1, 61)
    q2 = np.linspace(-1, 1, 61)
    vals = np.ones((61, 61), dtype=complex)
    field = WaveField("uv", q1, q2, vals, 0.0, QuantumNumbers(0, 0, "uv"), spec)
    assert hamiltonian_residual(field) < 1e-13


def test_v5_decay_example():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    qn = QuantumNumbers(0, 1, "uv")
    grid = (np.linspace(-2.0, 6.2, 500), np.linspace(0.05, 2 * math.pi - 0.05, 60))
    field = assemble_bound_state(spec, "uv", qn, grid=grid, energy=-4.5)
    i6 = int(np.argmin(np.abs(field.q1 - 6.0)))
    assert np.abs(field.values[i6, :]).max() < 1e-10 * np.abs(field.values).max()
    # angular factor is a plane wave in v
    ratio = field.values[100, 10] / field.values[100, 0]
    want = np.exp(1j * qn.l * (field.q2[10] - field.q2[0]))
    assert abs(ratio - want) < 1e-12


def test_v5_uv_state_at_negative_l_is_the_opposite_momentum():
    # l is the momentum of e^{ilv}: its u factor and count read |l|, so l = -1
    # and l = -2 are the levels of l = 1 and l = 2 with the conjugate state
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.5})
    for l in (1, 2):
        fields = []
        for sign in (1, -1):
            qn = QuantumNumbers(0, sign * l, "uv")
            e = pick_energy(spec, qn)
            grid = default_grid(spec, "uv", qn, e, (401, 301))
            fields.append(assemble_bound_state(spec, "uv", qn, grid=grid, energy=e))
        plus, minus = fields
        assert minus.energy == plus.energy
        assert np.array_equal(minus.values, np.conj(plus.values))
        assert hamiltonian_residual(minus) == hamiltonian_residual(plus) < 1e-5


def test_no_admissible_root_error():
    spec = PotentialSpec(SP1, "DIII_V2", {"alpha": 1.0, "k1": 0.5, "k2": 0.5})
    big = QuantumNumbers(0, 0, "uv")
    # a strongly repulsive alpha makes the discriminant negative: all candidates complex
    bad = PotentialSpec(SP1, "DIII_V2", {"alpha": -10.0, "k1": 0.5, "k2": 0.5})
    with pytest.raises(NoAdmissibleRootError):
        assemble_bound_state(bad, "uv", QuantumNumbers(0, 0, "uv"))
    with pytest.raises(UnsupportedChartError):
        assemble_bound_state(spec, "hyperbolic", big)


def test_normalization_div_v1():
    spec = PotentialSpec(SP4, "DIV_V1", {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0})
    qn = QuantumNumbers(0, 0, "horospherical")
    f = normalize_weighted(assemble_bound_state(spec, "horospherical", qn))
    assert f.norm_constant is not None
    # independent re-integration with a 2D Simpson rule over the decayed support
    from darboux.wavefun import _sqrtg_grid
    from scipy.integrate import simpson

    g2 = (np.linspace(0.0033845326804145337, 8.336732292493139, 901),
          np.linspace(0.0879533574436568, 9.067877174371715, 701))
    big = assemble_bound_state(spec, "horospherical", qn, grid=g2, energy=f.energy)
    w = _sqrtg_grid(SP4, "horospherical", big.q1, big.q2)
    total = simpson(simpson(np.abs(big.values * f.norm_constant) ** 2 * w, x=big.q2, axis=1),
                    x=big.q1)
    assert total == pytest.approx(1.0, abs=1e-8)


def _state_at(spec, chart, qn, points):
    """The picked state of ``qn`` in ``chart`` at the (u, v) chart ``points``
    mapped into it, from its two factors: times its norm constant on D_IV, and
    times rho^{-1/2} in polar, as assembled."""
    E = pick_energy(spec, qn)
    c = chart_transform(spec.space, points, chart)
    s0, s1 = separated_problem(spec, chart, qn)
    psi = s0.factor(E)(c.q1) * s1.factor(E)(c.q2) * (c.q1 ** -0.5 if chart == "polar" else 1.0)
    if spec.space.family == DIII:
        return psi
    grid = default_grid(spec, chart, qn, E, (9, 9))
    return psi * normalize_weighted(assemble_bound_state(spec, chart, qn, grid, E)).norm_constant


def _uv_points(spec, qn):
    """The 7x7 interior points of the uv state's default 9x9 grid."""
    q1, q2 = default_grid(spec, "uv", qn, pick_energy(spec, qn), (9, 9))
    return Chart("uv", q1[1:-1, None], q2[None, 1:-1])


def test_a_nondegenerate_state_is_one_function_in_every_chart():
    # the ground level of DIV_V1 and of DIII_V2 has one state, so each chart's
    # separation and factors must give one function at the same points, up to
    # one constant: on D_IV that constant is a sign, for each chart's grid-free
    # norm must agree; D_III's formal states have no norm.  Bounds are 10x the
    # worst of 14 comparisons: the shapes agree to 4.0e-15, the D_IV norms to
    # 1.4e-11, the accuracy of their sums (_END_TOL) at alpha/(hbar omega) ~ 4
    rng = np.random.default_rng(17)
    shape, norm, compared = 0.0, 0.0, 0
    for _ in range(8):
        div = PotentialSpec(SP4, "DIV_V1", {
            "alpha": float(rng.uniform(4.0, 16.0)), "k1": float(rng.uniform(0.1, 1.0)),
            "k2": float(rng.uniform(0.1, 1.0)), "omega": float(rng.uniform(0.5, 1.5))})
        a, b = (float(x) for x in rng.uniform(0.5, 2.5, 2))
        diii = PotentialSpec(SpaceParams(DIII, a, b), "DIII_V2", {
            "alpha": float(rng.uniform(-3.0, 3.0)), "k1": float(rng.uniform(0.1, 1.5)),
            "k2": float(rng.uniform(0.1, 1.5))})
        for spec, charts in ((div, ("uv", "horospherical")), (diii, ("uv", "polar", "parabolic"))):
            try:
                points = _uv_points(spec, QuantumNumbers(0, 0, "uv"))
                ref, *others = (_state_at(spec, c, QuantumNumbers(0, 0, c), points) for c in charts)
            except NoAdmissibleRootError:
                continue
            for psi in others:
                ratio = psi / ref
                shape = max(shape, np.abs(ratio / ratio[0, 0] - 1.0).max())
                if spec.space.family == DIV:
                    norm = max(norm, abs(abs(ratio[0, 0]) - 1.0))
                compared += 1
    assert compared >= 14
    assert shape < 4e-14 and norm < 1.4e-10


def test_a_degenerate_level_is_one_span_in_every_chart():
    # a DIV_V1 level with several states is a space, not one function: each uv
    # state of the level must lie in the span of the horospherical ones.  The
    # dimension is the level's multiplicity among the picks at n, l <= 3, counted
    # as test_spectra's cross-chart test counts it and the same in both charts.
    # Least squares at the 7x7 interior points of the uv grid leaves 1.6e-15 of
    # a state over the n + l = 1 and 2 levels of four seeded draws (7 levels);
    # the bound is 10x that
    def level(spec, chart, e):
        qns = []
        for n in range(4):
            for l in range(4):
                qn = QuantumNumbers(n, l, chart)
                try:
                    x = pick_energy(spec, qn)
                except NoAdmissibleRootError:
                    continue
                if abs(x - e) <= 1e-9 * max(abs(e), abs(x)):
                    qns.append(qn)
        return qns

    rng = np.random.default_rng(23)
    worst, levels = 0.0, 0
    for _ in range(4):
        spec = PotentialSpec(SP4, "DIV_V1", {
            "alpha": float(rng.uniform(4.0, 16.0)), "k1": float(rng.uniform(0.1, 1.0)),
            "k2": float(rng.uniform(0.1, 1.0)), "omega": float(rng.uniform(0.5, 1.5))})
        for top in (1, 2):
            try:
                e = pick_energy(spec, QuantumNumbers(0, top, "uv"))
            except NoAdmissibleRootError:
                continue
            uv, horo = level(spec, "uv", e), level(spec, "horospherical", e)
            assert len(uv) == len(horo) == top + 1, (spec, uv, horo)
            points = _uv_points(spec, uv[0])
            states = [np.column_stack([_state_at(spec, qn.scheme, qn, points).ravel()
                                       for qn in qns]) for qns in (uv, horo)]
            coef, *_ = np.linalg.lstsq(states[1], states[0], rcond=None)
            rest = np.linalg.norm(states[0] - states[1] @ coef, axis=0)
            worst = max(worst, (rest / np.linalg.norm(states[0], axis=0)).max())
            levels += 1
    assert levels >= 7
    assert worst < 1.6e-14


def test_orthogonality_same_l_different_n():
    spec = PotentialSpec(SP4, "DIV_V1", {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0})
    qn0 = QuantumNumbers(0, 0, "horospherical")
    qn1 = QuantumNumbers(1, 0, "horospherical")
    e0, e1 = pick_energy(spec, qn0), pick_energy(spec, qn1)
    grid = (np.linspace(0.0033845326804145337, 8.336732292493139, 801),
            np.linspace(0.0879533574436568, 9.067877174371715, 601))
    f0 = normalize_weighted(assemble_bound_state(spec, "horospherical", qn0, grid=grid, energy=e0))
    f1 = normalize_weighted(assemble_bound_state(spec, "horospherical", qn1, grid=grid, energy=e1))
    assert abs(weighted_overlap(f0, f1)) < 1e-5


def test_v4_difference_branch_normalizable_pair():
    spec = PotentialSpec(SP1, "DIII_V4", {"d1": -3.0, "d2": -1.0, "omega": 1.0})
    fields = []
    for qn in (QuantumNumbers(0, 0, "hyperbolic"), QuantumNumbers(1, 0, "hyperbolic")):
        e = pick_energy(spec, qn)
        f = assemble_bound_state(spec, "hyperbolic", qn, energy=e)
        assert hamiltonian_residual(f) < 1e-5
        fields.append(normalize_weighted(f))
    # the log variables (ln mu, ln nu) over the decayed support of the pair
    grid = (np.linspace(-24.831996828297022, 3.5912901068558796, 801),
            np.linspace(-24.816000000000003, 3.5760000000000005, 601))
    a = assemble_bound_state(spec, "hyperbolic", fields[0].qn, grid=grid,
                             energy=fields[0].energy)
    b = assemble_bound_state(spec, "hyperbolic", fields[1].qn, grid=grid,
                             energy=fields[1].energy)
    a.values *= fields[0].norm_constant
    b.values *= fields[1].norm_constant
    assert abs(weighted_overlap(a, b)) < 1e-5


def test_div_v3_states_normalize_on_the_whole_chart():
    # the phi factor lives on all of 0 < phi < pi/2 and does not decay
    # inside 0 < phi < pi/4
    spec = PotentialSpec(SP4, "DIV_V3", {"c1": 0.3, "c2": -200.0, "c3": 0.2})
    qns = [QuantumNumbers(n, l, "degelliptic2") for n, l in ((0, 0), (1, 0), (1, 1))]
    energies = [pick_energy(spec, qn) for qn in qns]
    grid = (np.linspace(0.03152085999229546, 4.53823642466692, 801),
            np.linspace(0.001, 1.5697963267948967, 601))
    fields = []
    for qn, e in zip(qns, energies):
        c = normalize_weighted(assemble_bound_state(spec, "degelliptic2", qn, energy=e)).norm_constant
        f = assemble_bound_state(spec, "degelliptic2", qn, grid=grid, energy=e)
        f.values *= c
        assert weighted_overlap(f, f).real == pytest.approx(1.0, abs=1e-8)
        fields.append(f)
    for i in range(3):
        for j in range(i):
            assert abs(weighted_overlap(fields[i], fields[j])) < 1e-8


D3_GATES = [g for g in GATES if g[0].startswith("DIII")]


@pytest.mark.parametrize("family,coup,chart,qn,energy", D3_GATES,
                         ids=[f"{g[0]}-{g[2]}" for g in D3_GATES])
def test_divergent_norm_error(family, coup, chart, qn, energy):
    # each of these states has a factor that grows toward a chart boundary
    spec = PotentialSpec(SP1, family, coup)
    q = QuantumNumbers(*qn)
    f = assemble_bound_state(spec, chart, q, energy=energy if energy is not None
                             else pick_energy(spec, q))
    with pytest.raises(DivergentNormError):
        normalize_weighted(f)


def test_zero_norm_message_prints_a_plain_float():
    # at E = -1e-30 the oscillators are too wide for their factors to register:
    # the norm sums to 0.0, printed as numpy's repr before
    spec = PotentialSpec(SP1, "DIII_V1", {"k1": 0.4, "k2": 0.3, "k3": 0.2})
    z = np.zeros(3)
    f = WaveField("parabolic", z, z, np.zeros((3, 3)), -1e-30, QuantumNumbers(0, 0, "parabolic"),
                  spec)
    with pytest.raises(DivergentNormError, match="weighted norm 0.0 is not positive") as err:
        normalize_weighted(f)
    assert "np.float64" not in str(err.value)


def _closed_form_norm(spec, chart, qn, E):
    """c^-2 of a D_IV state from Hellmann-Feynman: <sin^-2 u> = (2n + alpha +
    beta + 1)/alpha on a Poeschl-Teller level, <r^-2> = (m |omega|/hbar)/lambda
    on a radial oscillator (m = hbar = 1 here)."""
    sp = spec.space
    l1, l2 = FAMILIES[spec.family].indices(spec, E)
    if spec.family == "DIV_V2":  # (lambda_+, lambda_-), times a unit-normed v factor
        return (2 * qn.n + l1 + l2 + 1) * (sp.a_plus / l1 + sp.a_minus / l2)
    if chart == "uv":  # the Morse v factor is unit-normed in 2v
        return 0.5 * (2 * qn.n + l1 + l2 + 1) * (sp.a_plus / l2 + sp.a_minus / l1)
    return abs(spec.c("omega")) * (sp.a_minus / l1 + sp.a_plus / l2)


def _seeded_d4_states():
    """40 seeded draws of DIV_V1 (uv and horospherical) and DIV_V2 (uv)
    couplings, each with every n, l <= 2 that has a root."""
    rng = np.random.default_rng(19)
    states = []
    for i in range(40):
        b = rng.uniform(0.3, 1.5)
        sp = SpaceParams(DIV, 2 * b + rng.uniform(0.1, 3), b)
        if i % 2 == 0:
            coup = {"alpha": rng.uniform(2, 15), "k1": rng.uniform(0.05, 2),
                    "k2": rng.uniform(0.05, 2),
                    "omega": rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2)}
            spec, charts = PotentialSpec(sp, "DIV_V1", coup), ("uv", "horospherical")
        else:
            coup = {"k1": rng.uniform(0.05, 2), "k2": rng.uniform(3, 10),
                    "k3": rng.uniform(0.05, 1.5)}
            spec, charts = PotentialSpec(sp, "DIV_V2", coup), ("uv",)
        for chart in charts:
            for n in range(3):
                for l in range(3):
                    q = QuantumNumbers(n, l, chart)
                    try:
                        states.append((spec, chart, q, pick_energy(spec, q)))
                    except NoAdmissibleRootError:
                        pass
    return states


def test_norms_match_closed_forms_on_seeded_states():
    states = _seeded_d4_states()
    assert len(states) > 200
    small_grid = (np.linspace(0.2, 0.5, 3), np.linspace(0.2, 0.5, 3))
    for spec, chart, q, E in states:
        f = assemble_bound_state(spec, chart, q, grid=small_grid, energy=E)
        try:
            c = normalize_weighted(f).norm_constant
        except ResolutionError:
            # a Poeschl-Teller wall integrand d^(2 lambda - 1) with lambda this
            # small decays too slowly for double-precision nodes
            assert spec.family == "DIV_V2" and min(FAMILIES["DIV_V2"].indices(spec, E)) < 0.3
            continue
        want = _closed_form_norm(spec, chart, q, E)
        assert c ** -2 == pytest.approx(want, rel=1e-9), (spec.couplings, chart, q)


@pytest.mark.parametrize("family,coup,chart,qn", [
    ("DIV_V1", {"alpha": 8.0, "k1": 1.6, "k2": 1.4, "omega": 1.0}, "uv", (0, 0, "uv")),
    ("DIV_V1", {"alpha": 8.0, "k1": 1.6, "k2": 1.4, "omega": 1.0}, "horospherical",
     (0, 0, "horospherical")),
    ("DIV_V2", {"k1": 2.0, "k2": 6.0, "k3": 0.5}, "uv", (0, 0, "uv")),
])
def test_norms_of_states_whose_factors_vanish_like_a_power(family, coup, chart, qn):
    spec = PotentialSpec(SP4, family, coup)
    q = QuantumNumbers(*qn)
    f = normalize_weighted(assemble_bound_state(spec, chart, q))
    assert f.norm_constant ** -2 == pytest.approx(_closed_form_norm(spec, chart, q, f.energy),
                                                  rel=1e-9)
    if family == "DIV_V2":
        # the pulled-back degelliptic2 state takes the norm of its (u, v) product
        g = normalize_weighted(assemble_bound_state(spec, "degelliptic2", q))
        assert g.norm_constant == f.norm_constant


@pytest.mark.parametrize("space,chart,spans", [
    (SP1, "uv", ((-1.0, 3.0), (0.1, 6.0))),
    (SP1, "polar", ((0.1, 3.0), (0.1, 6.0))),
    (SP1, "parabolic", ((-3.0, 3.0), (-3.0, 3.0))),
    (SP1, "hyperbolic", ((-3.0, 1.0), (-3.0, 1.0))),
    (SP4, "uv", ((0.05, 1.5), (-2.0, 2.0))),
    (SP4, "horospherical", ((0.1, 3.0), (0.1, 3.0))),
    (SP4, "degelliptic2", ((0.1, 3.0), (0.05, 1.5))),
])
def test_area_density_splits_into_one_term_per_axis(space, chart, spans):
    # the premise of normalize_weighted: w(q1, q2) = w(q1, c2) + w(c1, q2) - w(c1, c2)
    from darboux.wavefun import _sqrtg_grid

    rng = np.random.default_rng(7)
    (lo1, hi1), (lo2, hi2) = spans
    q1, q2 = np.sort(rng.uniform(lo1, hi1, 7)), np.sort(rng.uniform(lo2, hi2, 5))
    c1, c2 = rng.uniform(lo1, hi1, 1), rng.uniform(lo2, hi2, 1)
    w = _sqrtg_grid(space, chart, q1, q2)
    split = (_sqrtg_grid(space, chart, q1, c2) + _sqrtg_grid(space, chart, c1, q2)
             - _sqrtg_grid(space, chart, c1, c2))
    assert np.abs(w - split).max() <= 1e-12 * np.abs(w).max()


def test_scheme_must_match_chart():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    with pytest.raises(ParamError):
        assemble_bound_state(spec, "polar", QuantumNumbers(0, 1, "uv"), energy=-4.5)
    # the DIV_V2 pullback takes the (u, v) count of its state
    spec = PotentialSpec(SP4, "DIV_V2", {"k1": 2.0, "k2": 6.0, "k3": 0.5})
    field = assemble_bound_state(spec, "degelliptic2", QuantumNumbers(0, 0, "uv"))
    assert field.values.shape == (301, 201)
