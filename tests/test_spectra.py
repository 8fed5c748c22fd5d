import math

import numpy as np
import pytest

from darboux.errors import ParamError, UnsupportedError
from darboux.geometry import DIII, DIV, SpaceParams
from darboux.potentials import PotentialSpec
from darboux.spectra import (
    EnergyRoots,
    QuantumNumbers,
    admissibility_check,
    asymptotic_spectrum,
    continuous_dispersion,
    quantization_residual,
    solve_quantization,
)
from darboux.wavefun import pick_energy

SP1 = SpaceParams(DIII, 1.0, 1.0)
SP4 = SpaceParams(DIV, 3.0, 1.0)


def best(roots: EnergyRoots, want):
    return min(abs(z.real - want) for z in roots.candidates)


def test_v5_free_spectrum_uv():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    for n in range(4):
        for l in range(4):
            roots = solve_quantization(spec, QuantumNumbers(n, l, "uv"))
            assert best(roots, -0.5 * (2 * n + 2 * l + 1) ** 2) < 1e-12


def test_v5_counting_scheme_containment():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    uv_set = set()
    for n in range(4):
        for l in range(4):
            roots = solve_quantization(spec, QuantumNumbers(n, l, "uv"))
            uv_set.update(round(r["E"], 10) for r in roots.admissible if r["E"] != 0)
    polar_set = set()
    for n in range(8):
        for l in range(8):
            roots = solve_quantization(spec, QuantumNumbers(n, l, "polar"))
            polar_set.update(round(r["E"], 10) for r in roots.admissible if r["E"] != 0)
    assert uv_set <= polar_set


def test_v2_quadratic_example():
    spec = PotentialSpec(SP1, "DIII_V2", {"alpha": 1.0, "k1": 0.5, "k2": 0.5})
    roots = solve_quantization(spec, QuantumNumbers(0, 0, "uv"))
    es = sorted(z.real for z in roots.candidates)
    assert es == [pytest.approx(-2.0, abs=1e-12), pytest.approx(-0.5, abs=1e-12)]
    for rec in roots.admissible:
        assert rec["residual"] < 1e-12


def test_v1_quartic_roots_and_flags():
    spec = PotentialSpec(SP1, "DIII_V1", {"k3": 0.01})
    roots = solve_quantization(spec, QuantumNumbers(0, 0, "parabolic"))
    real_neg = sorted(r["E"] for r in roots.admissible if r["admissible"] and r["E"] < 0)
    s = math.sqrt(0.23)
    want = sorted([(-0.48 - s) / 2, (-0.48 + s) / 2])
    assert real_neg == [pytest.approx(want[0], abs=1e-12), pytest.approx(want[1], abs=1e-12)]
    for rec in roots.admissible:
        if rec["E"] < 0:
            assert rec["satisfies_unsquared"] and rec["residual"] < 1e-9


def test_v1_special_case_matches_quartic():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b = rng.uniform(0.5, 2.5, 2)
        k3 = rng.uniform(-0.5, 0.5)
        N = int(rng.integers(1, 6))
        sp = SpaceParams(DIII, float(a), float(b))
        spec = PotentialSpec(sp, "DIII_V1", {"k3": float(k3)})
        qn = QuantumNumbers(N - 1, 0, "parabolic")
        # closed special-case roots of the k1 = k2 = 0 quadratic factor
        B = b * N * N / (2 * a * a) - 2 * k3 / a
        disc = complex(B * B - 4 * k3 * k3 / (a * a)) ** 0.5
        for E in ((-B + disc) / 2, (-B - disc) / 2):
            if abs(E.imag) > 1e-12:
                continue
            assert quantization_residual(spec, qn, E.real) < 1e-9


def test_v4_spectrum():
    spec = PotentialSpec(SP1, "DIII_V4", {"d1": -1.5, "d2": -0.5, "omega": 1.0})
    roots = solve_quantization(spec, QuantumNumbers(0, 0, "hyperbolic"))
    assert best(roots, -3.0) < 1e-12
    roots = solve_quantization(spec, QuantumNumbers(1, 0, "hyperbolic"))
    assert best(roots, 0.0) < 1e-12


@pytest.mark.parametrize("a, b, d1, d2", [(0.98, 1.59, -1.52, -0.58),
                                         (1.02, 0.97, 0.98, -1.12)])
def test_v4_equal_index_double_root_residual(a, b, d1, d2):
    # at n = l the difference branch m (2aE - d1 + d2)^2 = 0 has the double
    # root E = (d1 - d2)/(2a); both copies must plug back and stay admissible
    spec = PotentialSpec(SpaceParams(DIII, a, b), "DIII_V4",
                         {"d1": d1, "d2": d2, "omega": 1.0})
    qn = QuantumNumbers(0, 0, "hyperbolic")
    roots = solve_quantization(spec, qn)
    assert len(roots.admissible) == 3
    for rec in roots.admissible:
        assert rec["residual"] < 1e-12 and rec["admissible"]
        assert quantization_residual(spec, qn, rec["E"]) < 1e-12
    double = [r["E"] for r in roots.admissible][1:]
    assert double == [pytest.approx((d1 - d2) / (2.0 * a), rel=1e-7)] * 2


def test_v4_equal_index_double_root_is_exact():
    # the double root comes from the linear factor 2aE - d1 + d2, so both
    # copies are exact and the unsquared condition holds at n - l = 0
    spec = PotentialSpec(SpaceParams(DIII, 1.02, 0.97), "DIII_V4",
                         {"d1": 0.98, "d2": -1.12, "omega": 1.0})
    qn = QuantumNumbers(0, 0, "hyperbolic")
    double = solve_quantization(spec, qn).admissible[1:]
    assert [r["E"] for r in double] == [(0.98 + 1.12) / (2.0 * 1.02)] * 2
    assert all(r["satisfies_unsquared"] and r["decaying_wavefunction"] for r in double)
    assert pick_energy(spec, qn) == double[0]["E"]


def test_plugback_randomized_quadratics():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b = rng.uniform(0.5, 2.5, 2)
        sp = SpaceParams(DIII, float(a), float(b))
        for fam, coup in [
            ("DIII_V2", {"alpha": float(rng.uniform(0.05, 1.0)),
                         "k1": float(rng.uniform(0.1, 1)), "k2": float(rng.uniform(0.1, 1))}),
            ("DIII_V3", {"alpha": float(rng.uniform(0.05, 1.0)),
                         "c1": float(rng.uniform(0.3, 1.5)), "c2": float(rng.uniform(0.3, 1.5))}),
            ("DIII_V5", {"v0": float(rng.uniform(0.0, 1.0))}),
        ]:
            spec = PotentialSpec(sp, fam, coup)
            scheme = "polar" if fam == "DIII_V3" else "uv"
            qn = QuantumNumbers(int(rng.integers(0, 4)), int(rng.integers(0, 4)), scheme)
            roots = solve_quantization(spec, qn)
            for rec in roots.admissible:
                assert rec["residual"] < 1e-12


def test_plugback_v5_polar_and_div():
    rng = np.random.default_rng(7)
    for _ in range(20):
        b = float(rng.uniform(0.3, 1.2))
        sp4 = SpaceParams(DIV, 2 * b + float(rng.uniform(0.1, 1.5)), b)
        spec = PotentialSpec(sp4, "DIV_V1",
                             {"alpha": float(rng.uniform(8, 16)), "k1": float(rng.uniform(0.1, 1)),
                              "k2": float(rng.uniform(0.1, 1)), "omega": float(rng.uniform(0.5, 1.5))})
        roots = solve_quantization(spec, QuantumNumbers(int(rng.integers(0, 3)), 0, "uv"))
        for rec in roots.admissible:
            assert rec["residual"] < 1e-12
        spec = PotentialSpec(sp4, "DIV_V2",
                             {"k1": 1.0, "k2": float(rng.uniform(7, 10)),
                              "k3": float(rng.uniform(0.2, 1.0))})
        roots = solve_quantization(spec, QuantumNumbers(0, 0, "uv"))
        for rec in roots.admissible:
            assert rec["residual"] < 1e-12
        sp1 = SpaceParams(DIII, float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))
        spec = PotentialSpec(sp1, "DIII_V5", {"v0": float(rng.uniform(0, 1))})
        roots = solve_quantization(spec, QuantumNumbers(int(rng.integers(0, 3)),
                                                        int(rng.integers(0, 3)), "polar"))
        for rec in roots.admissible:
            assert rec["residual"] < 1e-12


def test_div_v2_example_values():
    spec = PotentialSpec(SP4, "DIV_V2", {"k1": 2.0, "k2": 6.0, "k3": 0.5})
    roots = solve_quantization(spec, QuantumNumbers(0, 0, "uv"))
    es = sorted(z.real for z in roots.candidates)
    assert es[0] == pytest.approx(-3 - math.sqrt(6), abs=1e-12)
    assert es[1] == pytest.approx(-3 + math.sqrt(6), abs=1e-12)


def test_parabolic_uv_equivalence_diii_v2():
    spec = PotentialSpec(SP1, "DIII_V2", {"alpha": 0.4, "k1": 0.3, "k2": 0.8})
    uv = solve_quantization(spec, QuantumNumbers(1, 1, "uv"))
    par = solve_quantization(spec, QuantumNumbers(2, 0, "parabolic"))
    a = sorted(z.real for z in uv.candidates)
    b = sorted(z.real for z in par.candidates)
    assert all(abs(x - y) < 1e-10 for x, y in zip(a, b))


def test_horospherical_uv_equivalence_div_v1():
    spec = PotentialSpec(SP4, "DIV_V1", {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0})
    uv = solve_quantization(spec, QuantumNumbers(1, 1, "uv"))
    horo = solve_quantization(spec, QuantumNumbers(0, 2, "horospherical"))
    a = sorted(z.real for z in uv.candidates)
    b = sorted(z.real for z in horo.candidates)
    assert all(abs(x - y) < 1e-10 for x, y in zip(a, b))


def test_free_motion_embedding():
    free = {-0.5 * (2 * N + 1) ** 2 for N in range(4)}
    spec1 = PotentialSpec(SP1, "DIII_V1", {})
    got1 = set()
    for n in range(8):
        roots = solve_quantization(spec1, QuantumNumbers(n, 0, "parabolic"))
        got1.update(round(z.real, 9) for z in roots.candidates)
    spec5 = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    got5 = set()
    for n in range(4):
        for l in range(4):
            roots = solve_quantization(spec5, QuantumNumbers(n, l, "uv"))
            got5.update(round(z.real, 9) for z in roots.candidates)
    assert {round(e, 9) for e in free} <= got1
    assert {round(e, 9) for e in free} <= got5


def test_div_v3_bracketed_roots():
    spec = PotentialSpec(SP4, "DIV_V3", {"c1": 0.3, "c2": -200.0, "c3": 0.2})
    roots = solve_quantization(spec, QuantumNumbers(0, 0, "degelliptic2"))
    assert roots.candidates
    for rec in roots.admissible:
        assert rec["residual"] < 1e-10


def test_div_v3_no_root():
    from darboux.errors import NoRootError

    spec = PotentialSpec(SP4, "DIV_V3", {"c1": 0.1, "c2": 0.1, "c3": 0.1})
    with pytest.raises(NoRootError):
        solve_quantization(spec, QuantumNumbers(3, 3, "degelliptic2"))
    # c1 = c2 at n + l = 1, where 2(n + l) + lam_1- - lam_2- - 2, a condition
    # no product state meets, vanishes at every energy: no root, not 962
    spec = PotentialSpec(SpaceParams(DIV, 4.0, 1.0), "DIV_V3",
                         {"c1": -200.0, "c2": -200.0, "c3": 0.1})
    with pytest.raises(NoRootError):
        solve_quantization(spec, QuantumNumbers(1, 0, "degelliptic2"))


def test_div_v3_roots_solve_both_separated_odes():
    # every admissible root is a product state: the analytic factors solve
    # both separated ODEs at it
    from darboux.errors import NoRootError
    from darboux.oracle import separated_ode_residual

    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(80):
        a = float(rng.choice([3.0, 4.0, 6.0]))
        c = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-1.0, 2.5, 3)
        c[1] = -abs(c[1])  # lambda_2+ grows with -c2 and carries the closure
        spec = PotentialSpec(SpaceParams(DIV, a, 1.0), "DIV_V3",
                             dict(zip(("c1", "c2", "c3"), c.tolist())))
        for n, l in ((0, 0), (1, 0), (0, 1)):
            qn = QuantumNumbers(n, l, "degelliptic2")
            try:
                roots = solve_quantization(spec, qn)
            except NoRootError:
                continue
            for rec in roots.admissible:
                assert rec["admissible"]
                for axis in (0, 1):
                    res = separated_ode_residual(spec, "degelliptic2", qn, rec["E"], axis=axis)
                    assert res < 1e-6, (a, c, n, l, rec["E"], axis)
                checked += 1
    assert checked >= 20


# uniform coupling ranges of the seeded picks below (DIV_V3 draws as above)
PICK_RANGES = {
    "DIII_V1": {"k1": (-0.5, 0.5), "k2": (-0.5, 0.5), "k3": (-0.5, 0.5)},
    "DIII_V2": {"alpha": (-1.0, 1.0), "k1": (0.1, 1.0), "k2": (0.1, 1.0)},
    "DIII_V3": {"alpha": (-1.0, 1.0), "c1": (0.3, 1.5), "c2": (0.3, 1.5)},
    "DIII_V4": {"d1": (-3.0, -0.2), "d2": (-3.0, -0.2), "omega": (0.5, 1.5)},
    "DIII_V5": {"v0": (0.0, 1.0)},
    "DIV_V1": {"alpha": (8.0, 16.0), "k1": (0.1, 1.0), "k2": (0.1, 1.0), "omega": (0.5, 1.5)},
    "DIV_V2": {"k1": (0.5, 2.0), "k2": (5.0, 10.0), "k3": (0.2, 1.0)},
}


def _draw_spec(rng, name):
    if name == "DIV_V3":
        c = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-1.0, 2.5, 3)
        c[1] = -abs(c[1])
        return PotentialSpec(SpaceParams(DIV, float(rng.choice([3.0, 4.0, 6.0])), 1.0), name,
                             dict(zip(("c1", "c2", "c3"), c.tolist())))
    if name.startswith("DIII"):
        sp = SpaceParams(DIII, float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5)))
    else:
        b = float(rng.uniform(0.3, 1.2))
        sp = SpaceParams(DIV, 2.0 * b + float(rng.uniform(0.1, 2.0)), b)
    return PotentialSpec(sp, name, {k: float(rng.uniform(*r))
                                    for k, r in PICK_RANGES[name].items()})


def test_picked_roots_solve_both_separated_odes():
    # every root that pick_energy returns, for every family with schemes, in
    # each chart it is separated in, n, l <= 2: the analytic factors solve
    # their separated ODEs (both, where the angle is separated too).  12
    # seeded couplings per family; 1145 picks, worst residual 6.9e-7
    from darboux.errors import DarbouxError
    from darboux.families import FAMILIES
    from darboux.oracle import separated_ode_residual

    rng = np.random.default_rng(20261019)
    checked = {}
    for name, rec in FAMILIES.items():
        charts = sorted({chart for chart, _ in rec.separations} & set(rec.schemes))
        if not charts:
            continue
        checked[name] = 0
        for _ in range(12):
            spec = _draw_spec(rng, name)
            for chart in charts:
                axes = [axis for axis in (0, 1) if (chart, axis) in rec.separations]
                for n in range(3):
                    for l in range(3):
                        qn = QuantumNumbers(n, l, chart)
                        try:
                            E = pick_energy(spec, qn)
                        except DarbouxError:
                            continue
                        for axis in axes:
                            res = separated_ode_residual(spec, chart, qn, E, axis=axis)
                            assert res < 1e-6, (name, spec.couplings, chart, n, l, E, axis)
                        checked[name] += 1
    assert set(checked) == {name for name, rec in FAMILIES.items() if rec.schemes}
    assert min(checked.values()) > 0, checked


def test_dispersion_values():
    spd = SpaceParams(DIV, 2.0, 1.0)  # a_+ = 1, a_- = 0
    spec = PotentialSpec(spd, "DIV_V1", {"k2": 0.5, "omega": 1.0})
    assert continuous_dispersion(spec, 1.0) == pytest.approx(0.625)
    sp6 = SpaceParams(DIV, 6.0, 1.0)  # a_- = 1
    assert continuous_dispersion(PotentialSpec(sp6, "DIV_V4", {"k0": 0.5}), 0.0,
                                 aux="degelliptic") == pytest.approx(0.125)
    assert continuous_dispersion(PotentialSpec(sp6, "DIV_V3", {"c3": 0.25}), 2.0) == \
        pytest.approx(2.0)
    assert continuous_dispersion(PotentialSpec(SP1, "DIII_V4", {"omega": 1.0}), 1.2) == \
        pytest.approx(0.72)
    with pytest.raises(UnsupportedError):
        continuous_dispersion(PotentialSpec(SP1, "DIII_V5", {}), 1.0)
    with pytest.raises(ParamError):
        continuous_dispersion(PotentialSpec(sp6, "DIV_V3", {}), -1.0)
    # the a_- forms divide by a_-, which is 0 on the a = 2b surface
    for fam, coup, aux in (("DIV_V2", {"k3": 0.5}, "degelliptic"), ("DIV_V3", {}, None),
                           ("DIV_V4", {"k0": 0.5}, "degelliptic")):
        with pytest.raises(ParamError, match="a_-"):
            continuous_dispersion(PotentialSpec(spd, fam, coup), 1.0, aux=aux)


def test_asymptotics_ratio():
    spec = PotentialSpec(SP1, "DIII_V2", {"alpha": 1.0, "k1": 0.5, "k2": 0.5})
    qn = QuantumNumbers(49, 49, "uv")  # N = 199
    roots = solve_quantization(spec, qn)
    es = sorted(z.real for z in roots.candidates)
    for E, branch in ((es[0], "minus"), (es[1], "plus")):
        assert E / asymptotic_spectrum(spec, qn, branch) == pytest.approx(1.0, abs=0.01)


def test_asymptotics_monotone_convergence():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 1.0})
    prev = None
    for n in (13, 25, 50, 100):
        qn = QuantumNumbers(n, n, "uv")
        roots = solve_quantization(spec, qn)
        es = sorted(z.real for z in roots.candidates)
        ratio = abs(es[0] / asymptotic_spectrum(spec, qn, "plus") - 1.0)
        if prev is not None:
            assert ratio < prev
        prev = ratio


def test_admissibility_examples():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    rec = admissibility_check(spec, QuantumNumbers(0, 0, "uv"), -0.5)
    assert rec["sqrt_real"] and rec["satisfies_unsquared"] and rec["decaying_wavefunction"]
    spec2 = PotentialSpec(SP1, "DIII_V2", {"alpha": 1.0, "k1": 0.5, "k2": 0.5})
    rec = admissibility_check(spec2, QuantumNumbers(0, 0, "uv"), 1.0)
    assert not rec["sqrt_real"]
    rec = admissibility_check(spec2, QuantumNumbers(0, 0, "uv"), -0.52)
    assert not rec["satisfies_unsquared"]


def test_scheme_validation():
    spec = PotentialSpec(SP1, "DIII_V4", {"d1": 1.0, "d2": 1.0, "omega": 1.0})
    with pytest.raises(ParamError):
        solve_quantization(spec, QuantumNumbers(0, 0, "uv"))


DIV3 = PotentialSpec(SP4, "DIV_V3", {"c1": 0.3, "c2": -200.0, "c3": 0.2})


@pytest.mark.parametrize("n, l", [(0, 0), (2, 1), (3, 4)])
def test_div_v3_gaps_on_an_energy_array(n, l):
    from darboux.families import FAMILIES
    from darboux.potentials import div3_indices

    gap = FAMILIES["DIV_V3"].gap
    qn = QuantumNumbers(n, l, "degelliptic2")
    # spans energies where some indices are complex (NaN) and where none is
    es = np.linspace(-1000.0, 100.0, 2201)
    arr = gap(DIV3, qn, es)
    one = np.array([gap(DIV3, qn, e) for e in es])
    assert np.isnan(arr).any() and not np.isnan(arr).all()
    assert np.array_equal(np.isnan(arr), np.isnan(one))
    assert arr[~np.isnan(one)].tobytes() == one[~np.isnan(one)].tobytes()
    # the indices are the correctly rounded square roots, NaN below 0
    sp = DIV3.space
    lam = div3_indices(DIV3, es)
    assert sorted(lam) == ["1m", "2p", "3m", "3p"]
    for key in lam:
        s, apm = (-1.0, sp.a_plus) if key[1] == "p" else (1.0, sp.a_minus)
        sq = [0.25 + s * DIV3.c(f"c{key[0]}") - 2.0 * sp.mass * apm * e / sp.hbar ** 2 for e in es]
        ref = np.array([math.sqrt(v) if v >= 0 else math.nan for v in sq])
        assert np.array_equal(lam[key], ref, equal_nan=True)


# DIV_V3 at DIV3 depends on n + l only: (energy, plug-back residual) for
# n + l = 0..5, and no root beyond; pinned from the per-energy scalar scan
DIV3_PINNED = [
    (-21.064430857609, 1.7711696584880946e-15),
    (-13.80975642707, 3.4184336637954515e-15),
    (-8.282606168504, 1.5022075628507752e-14),
    (-4.273250937797, 3.7728522378254956e-14),
    (-1.599193620314, 1.1618244225359452e-14),
    (-0.148859971364, 1.079241252029427e-12),
]


def test_div_v3_pinned_records():
    from darboux.errors import NoRootError

    for n in range(8):
        for l in range(8):
            qn = QuantumNumbers(n, l, "degelliptic2")
            if n + l >= len(DIV3_PINNED):
                with pytest.raises(NoRootError):
                    solve_quantization(DIV3, qn)
                continue
            energy, residual = DIV3_PINNED[n + l]
            roots = solve_quantization(DIV3, qn)
            assert roots.candidates == [complex(energy)]
            assert roots.admissible == [{
                "E": energy, "residual": residual, "sqrt_real": True,
                "satisfies_unsquared": True, "unsquared_sign": 1,
                "decaying_wavefunction": True, "admissible": True}]


def test_diii_v1_degenerate_b_is_a_param_error():
    spec = PotentialSpec(SpaceParams(DIII, 1.0, 1e-300), "DIII_V1", {"k3": 0.1})
    with pytest.raises(ParamError):
        solve_quantization(spec, QuantumNumbers(0, 0, "parabolic"))


# couplings the separations need positive
POSITIVE = {"DIII_V3": ("c2",)}


def test_candidates_match_mpmath_polyroots():
    # every branch of every polynomial condition, at seeded couplings: the
    # candidates against mpmath.polyroots of the same coefficients at 50 digits.
    # The worst deviation measured is 2.08e-16; the bound is 10x that
    import mpmath

    from darboux.families import FAMILIES

    rng = np.random.default_rng(20)
    worst = 0.0
    with mpmath.workdps(50):
        for name, rec in FAMILIES.items():
            if rec.transcendental or not rec.schemes:
                continue
            for _ in range(12):
                b = float(rng.uniform(0.3, 1.2))
                coup = {c: float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
                        for c in rec.couplings}
                coup.update({c: abs(coup[c]) for c in POSITIVE.get(name, ())})
                sp = SpaceParams(rec.space, 2 * b + float(rng.uniform(0.1, 1.5)), b)
                spec = PotentialSpec(sp, name, coup)
                for scheme in rec.schemes:
                    qn = QuantumNumbers(int(rng.integers(0, 3)), int(rng.integers(0, 3)), scheme)
                    refs = []
                    for co in rec.branches(spec, qn):
                        co = list(np.trim_zeros(np.asarray(co), "f"))
                        refs += [complex(z) for z in mpmath.polyroots(co, maxsteps=200,
                                                                      extraprec=200)]
                    cands = solve_quantization(spec, qn).candidates
                    assert len(cands) == len(refs)
                    for z in cands:
                        ref = refs.pop(int(np.argmin([abs(r - z) for r in refs])))
                        worst = max(worst, abs(z - ref) / (1.0 + abs(ref)))
    assert worst < 2.1e-15
