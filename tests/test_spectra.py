import contextlib
import math
import random

import numpy as np
import pytest

from darboux.errors import NoAdmissibleRootError, ParamError, UnsupportedError
from darboux.families import FAMILIES
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
    # a E + alpha = -hbar w N at alpha = -1: (E - 1)^2 = -4.5 E
    spec = PotentialSpec(SP1, "DIII_V2", {"alpha": -1.0, "k1": 0.5, "k2": 0.5})
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


def test_v1_quartic_polish_matches_poly1d_bitwise():
    # the Newton polish evaluates the quartic and its derivative by Horner's
    # rule as np.poly1d does; its roots must be those of the np.poly1d polish
    from darboux.families import FAMILIES
    from darboux.spectra import _poly_roots

    def reference(coeffs):
        p = np.poly1d(coeffs)
        dp = p.deriv()
        out = []
        for z in np.roots(coeffs):
            for _ in range(8):
                d = dp(z)
                if d == 0:
                    break
                z = z - p(z) / d
            out.append(complex(z))
        return out

    rng = np.random.default_rng(7)
    for _ in range(300):
        coeffs = list(rng.normal(size=5) * 10.0 ** rng.uniform(-3, 3, 5))
        assert np.array(_poly_roots(coeffs)).tobytes() == np.array(reference(coeffs)).tobytes()
    sp = SpaceParams(DIII, 1.3, 0.9)
    for n in range(5):
        spec = PotentialSpec(sp, "DIII_V1", {"k3": 0.3})
        for co in FAMILIES["DIII_V1"].branches(spec, QuantumNumbers(n, 0, "parabolic")):
            assert np.array(_poly_roots(co)).tobytes() == np.array(reference(co)).tobytes()


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


def test_v4_decay_rule_reads_the_difference_gap():
    # the rule reads the principal-sign gap of the difference branch, s0(n) -
    # s1(l) over the scale of that branch; the reference is the rule that
    # compared the two Morse indices over their own scale.  Both flag the same
    # roots over a seeded sweep, 30 % of it at n = l
    from darboux.families import FAMILIES, _gap_pair

    rec = FAMILIES["DIII_V4"]
    rng = random.Random(40)
    flags = []
    for _ in range(3000):
        sp = SpaceParams(DIII, rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        spec = PotentialSpec(sp, "DIII_V4", {"d1": rng.uniform(-5.0, 5.0),
                                             "d2": rng.uniform(-5.0, 5.0),
                                             "omega": rng.uniform(0.2, 3.0)})
        n = rng.randrange(5)
        qn = QuantumNumbers(n, n if rng.random() < 0.3 else rng.randrange(5), "hyperbolic")
        for r in solve_quantization(spec, qn).admissible:
            if not r["sqrt_real"]:
                continue
            E, v0 = r["E"], rec._v0(spec, r["E"])
            s0, s1 = (rec._shape(spec, E, ax) * v0 - k - 0.5 for ax, k in ((0, qn.n), (1, qn.l)))
            old = s0 > 0 and s1 > 0 and _gap_pair(s0, s1, 1.0)[0] < 1e-7
            flags.append((r["decaying_wavefunction"], old))
    assert all(new == old for new, old in flags)
    assert len(flags) > 5000 and 100 < sum(old for _, old in flags) < len(flags) - 100


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


def _picks(spec, scheme, top):
    """The pick_energy level of each (n, l) with n, l <= top that has one."""
    out = {}
    for n in range(top + 1):
        for l in range(top + 1):
            try:
                out[n, l] = pick_energy(spec, QuantumNumbers(n, l, scheme))
            except NoAdmissibleRootError:
                pass
    return out


def _cross_chart_specs():
    """Six seeded coupling sets of DIII_V2 and of DIV_V1, and the three pinned
    DIV_V2 tables, each with the schemes of its real charts."""
    rng = np.random.default_rng(36)
    for _ in range(6):
        a, b = rng.uniform(0.5, 2.5, 2)
        coup = {"alpha": rng.uniform(-1.0, 1.0), "k1": rng.uniform(0.1, 1.0),
                "k2": rng.uniform(0.1, 1.0)}
        yield (PotentialSpec(SpaceParams(DIII, float(a), float(b)), "DIII_V2",
                             {k: float(v) for k, v in coup.items()}), ("uv", "polar", "parabolic"))
    for _ in range(6):
        b = float(rng.uniform(0.3, 1.2))
        sp = SpaceParams(DIV, 2.0 * b + float(rng.uniform(0.1, 1.5)), b)
        coup = {"alpha": rng.uniform(4.0, 16.0), "k1": rng.uniform(0.1, 1.0),
                "k2": rng.uniform(0.1, 1.0), "omega": rng.uniform(0.5, 1.5)}
        yield (PotentialSpec(sp, "DIV_V1", {k: float(v) for k, v in coup.items()}),
               ("uv", "horospherical"))
    for k1, k2, k3 in ((2.0, 6.0, 0.5), (0.3, 4.0, -0.5), (1.0, 10.0, 2.0)):
        yield (PotentialSpec(SP4, "DIV_V2", {"k1": k1, "k2": k2, "k3": k3}),
               ("uv", "degelliptic2"))


def test_every_real_chart_has_the_same_spectrum():
    # one Hamiltonian has one discrete spectrum, whichever chart separates it:
    # every level at n, l <= 2 of one scheme is a level of every other scheme
    # at n, l <= 6, as often in each (the levels follow n + l in every scheme
    # here, so the cut at 6 holds all their copies), and a D_IV level lies
    # below the continuum.  Left out: the D_III hyperbolic chart, a continued
    # section with a signed metric and no real map to (u, v), which quantizes
    # another real form.  DIII_V5 follows below.
    def copies(e, levels):
        return sum(abs(x - e) <= 1e-9 * max(abs(e), abs(x)) for x in levels)

    checked = 0
    for spec, schemes in _cross_chart_specs():
        low = {s: _picks(spec, s, 2) for s in schemes}
        high = {s: _picks(spec, s, 6).values() for s in schemes}
        assert low[schemes[0]], spec
        for s in schemes:
            for e in low[s].values():
                for other in schemes:
                    assert copies(e, high[other]) == copies(e, high[s]) > 0, (spec, s, other, e)
                    checked += 1
        if spec.space.family == DIV:
            top = continuous_dispersion(spec, 0.0)
            assert all(e < top for s in schemes for e in high[s]), spec
    assert checked > 300

    # DIII_V5's uv angle is v = 2 phi, so e^{ilv} is the polar e^{2il phi}: the
    # uv levels are the polar levels at even l, and the polar levels are the
    # parabolic ones, each with its multiplicity, all counts M cut at 7 (a
    # count with no admissible root has none in any chart)
    rec = FAMILIES["DIII_V5"]

    def levels(spec, scheme, even=False):
        out = []
        for n in range(7):
            for l in range(-6 if scheme in rec.signed_l else 0, 7, 2 if even else 1):
                qn = QuantumNumbers(n, l, scheme)
                if rec.count(spec, qn) <= 7:
                    with contextlib.suppress(NoAdmissibleRootError):
                        out.append(pick_energy(spec, qn))
        return sorted(out)

    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(5):
        a, b, v0 = (float(x) for x in rng.uniform([0.3, 0.3, 0.0], [3.0, 3.0, 2.0]))
        spec = PotentialSpec(SpaceParams(DIII, a, b), "DIII_V5", {"v0": v0})
        uv, polar = levels(spec, "uv"), levels(spec, "polar")
        assert uv == levels(spec, "polar", even=True) and polar == levels(spec, "parabolic"), spec
        checked += len(uv) + len(polar)
    assert checked > 100


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
    # each chart it is separated in, n, l <= 2: the analytic factors of both
    # axes solve their separated ODEs.  12 seeded couplings per family; 1148
    # picks, worst residual 6.9e-7 (1.4e-10 on DIII_V5's plane-wave angles)
    from darboux.errors import DarbouxError
    from darboux.families import FAMILIES
    from darboux.oracle import separated_ode_residual

    rng = np.random.default_rng(20261019)
    checked = {}
    for name, rec in FAMILIES.items():
        charts = sorted(set(rec.separations) & set(rec.schemes))
        if not charts:
            continue
        checked[name] = 0
        for _ in range(12):
            spec = _draw_spec(rng, name)
            for chart in charts:
                for n in range(3):
                    for l in range(3):
                        qn = QuantumNumbers(n, l, chart)
                        try:
                            E = pick_energy(spec, qn)
                        except DarbouxError:
                            continue
                        for axis in (0, 1):
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


# Coupling draws of the decay-rule sweep, one per family with a discrete spectrum
DECAY_DRAWS = {
    "DIII_V1": lambda u: {"k1": u(-2, 2), "k2": u(-2, 2), "k3": u(-3, 3)},
    "DIII_V2": lambda u: {"alpha": u(-3, 6), "k1": u(-2, 2), "k2": u(-2, 2)},
    "DIII_V3": lambda u: {"alpha": u(-3, 6), "c1": u(0.2, 2.5), "c2": u(0.05, 2)},
    "DIII_V4": lambda u: {"d1": u(-4, 4), "d2": u(-4, 4), "omega": u(-2, 2)},
    "DIII_V5": lambda u: {"v0": u(-2, 2)},
    "DIV_V1": lambda u: {"alpha": u(-5, 40), "k1": u(-3, 3), "k2": u(-3, 3), "omega": u(-2, 2)},
    "DIV_V2": lambda u: {"k1": u(-3, 3), "k2": u(-14, 14), "k3": u(-3, 3)},
    "DIV_V3": lambda u: {"c1": u(-3, 3), "c2": u(-800, -100), "c3": u(-3, 3)},
}


def _v_row_top(spec, E):
    """model_max_index of the row whose ladder the D_IV v axis climbs."""
    import darboux.specfun as sf
    from darboux.potentials import div3_indices

    c, sp = spec.c, spec.space
    if spec.family == "DIV_V1":
        om = abs(c("omega"))
        v0, alpha_t = 2.0 * sp.mass * om / sp.hbar, c("alpha") / (4 * sp.mass * om * om)
        return sf.model_max_index(sf.ModelFamily(sf.MORSE_BOUND, {"v0": v0, "alpha_t": alpha_t}))
    if spec.family == "DIV_V2":
        params = {"eta": abs(c("k1")), "nu": abs(c("k2"))}
    else:
        lam = div3_indices(spec, E)
        params = {"eta": lam["3p"], "nu": lam["2p"]}
    return sf.model_max_index(sf.ModelFamily(sf.MPT_BOUND, params))


def test_decay_rule_is_asked_only_where_the_square_roots_are_real():
    # a record's decay rule states only what its unsquared condition leaves
    # open; what the deleted D_IV rules computed must follow from the rest:
    # a decaying DIV_V1 or DIV_V2 root has l on its v row's ladder, and every
    # real DIV_V3 root has n and l on the ladder of its MPT row
    from darboux.errors import NoRootError
    from darboux.families import FAMILIES

    rng = np.random.default_rng(30)
    seen = dict.fromkeys(("DIV_V1", "DIV_V2", "DIV_V3"), 0)
    for name, draw in DECAY_DRAWS.items():
        rec = FAMILIES[name]
        for _ in range(20):
            hb, m, a = rng.uniform(0.5, 1.6), rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0)
            b = 0.0 if rng.random() < 0.15 else rng.uniform(0.05, 0.5 * a)
            spec = PotentialSpec(SpaceParams(rec.space, a, b, hb, m), name, draw(rng.uniform))
            for scheme in rec.schemes:
                for n in range(4):
                    for l in range(4):
                        try:
                            roots = solve_quantization(spec, QuantumNumbers(n, l, scheme))
                        except (NoRootError, ParamError):  # DIII_V1 at b = 0, a bare scan
                            continue
                        for r in roots.admissible:
                            assert r["sqrt_real"] or not r["decaying_wavefunction"]
                            if name in seen and (r["decaying_wavefunction"] or name == "DIV_V3"):
                                top = _v_row_top(spec, r["E"])
                                assert l <= top and (name != "DIV_V3" or n <= top)
                                seen[name] += 1
    assert min(seen.values()) > 100, seen


def test_negative_l_is_a_level_error_unless_it_is_a_momentum():
    # l numbers a ladder level in every scheme but DIII_V5's uv and polar,
    # where it is the signed momentum of e^{ilv}
    from darboux.errors import LevelError
    from darboux.families import FAMILIES

    couplings = {
        "DIII_V1": {"k1": 0.4, "k2": 0.3, "k3": 0.2}, "DIII_V2": {"k1": 0.3, "k2": 0.7},
        "DIII_V3": {"c1": 1.2, "c2": 0.8}, "DIII_V4": {"d1": -1.5, "d2": -0.5, "omega": 1.0},
        "DIII_V5": {"v0": 0.5}, "DIV_V1": {"alpha": 8.0, "k1": 1.6, "k2": 1.4, "omega": 1.0},
        "DIV_V2": {"k1": 2.0, "k2": 6.0, "k3": 0.5}, "DIV_V3": {"c1": 0.3, "c2": -200.0, "c3": 0.2},
    }
    for name, coup in couplings.items():
        rec = FAMILIES[name]
        spec = PotentialSpec(SP1 if rec.space == DIII else SP4, name, coup)
        for scheme in rec.schemes:
            if scheme in rec.signed_l:
                continue
            for fn in (solve_quantization, pick_energy):
                with pytest.raises(LevelError):
                    fn(spec, QuantumNumbers(0, -1, scheme))
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.5})
    assert FAMILIES["DIII_V5"].signed_l == ("uv", "polar")
    for scheme in ("uv", "polar"):
        for n in range(3):
            for l in (1, 2):
                assert (pick_energy(spec, QuantumNumbers(n, -l, scheme))
                        == pick_energy(spec, QuantumNumbers(n, l, scheme))
                        < pick_energy(spec, QuantumNumbers(n, 0, scheme)))


@pytest.mark.parametrize("n, l", [(1.5, 0), (0, 0.5), (math.nan, 0), (0, math.inf),
                                  (-math.inf, 0), (np.float64(math.nan), 0), ("1", 0), (None, 0)],
                         ids=["n-half", "l-half", "n-nan", "l-inf", "n-minus-inf",
                              "n-numpy-nan", "n-string", "n-none"])
def test_a_label_that_is_not_an_integer_is_a_param_error(n, l):
    # an n of 1.5 once gave the n = 1.5 energy with the n = 1 factor
    with pytest.raises(ParamError, match="must be an integer"):
        QuantumNumbers(n, l, "uv")


LABEL_COUPLINGS = {
    "DIII_V1": {"k1": 0.4, "k2": 0.3, "k3": 0.2}, "DIII_V2": {"alpha": 0.5, "k1": 0.3, "k2": 0.7},
    "DIII_V3": {"c1": 1.2, "c2": 0.8}, "DIII_V4": {"d1": -1.5, "d2": -0.5, "omega": 1.0},
    "DIII_V5": {"v0": 0.5}, "DIV_V1": {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0},
    "DIV_V2": {"k1": 2.0, "k2": 6.0, "k3": 0.5}, "DIV_V3": {"c1": 0.3, "c2": -200.0, "c3": 0.2},
}


@pytest.mark.parametrize("name", sorted(LABEL_COUPLINGS))
def test_integral_labels_of_any_type_give_the_bits_of_python_ints(name):
    # numpy integers and integral floats are stored as the Python ints they equal
    rec = FAMILIES[name]
    spec = PotentialSpec(SP1 if rec.space == DIII else SP4, name, LABEL_COUPLINGS[name])
    for scheme in rec.schemes:
        for n, l in ((0, 0), (1, 0), (0, 1), (2, 1)):
            try:
                want = pick_energy(spec, QuantumNumbers(n, l, scheme)).hex()
            except NoAdmissibleRootError:
                want = "none"
            for kind in (np.int64, np.int32, np.uint8, float, np.float64):
                qn = QuantumNumbers(kind(n), kind(l), scheme)
                assert type(qn.n) is int and type(qn.l) is int
                assert (qn.n, qn.l) == (n, l)
                try:
                    got = pick_energy(spec, qn).hex()
                except NoAdmissibleRootError:
                    got = "none"
                assert got == want, (scheme, n, l, kind)


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


def test_div_v3_roots_against_mpmath_findroot():
    # the bracket-scan roots against mpmath.findroot of the same condition at
    # 30 digits, built from the exact double couplings.  The worst deviation
    # measured is 6.29e-14 (1 + |E|); the bound is 10x that
    import mpmath
    from mpmath import mpf

    sp = DIV3.space
    worst = 0.0
    with mpmath.workdps(30):
        a, b, c = mpf(sp.a), mpf(sp.b), {k: mpf(DIV3.c(k)) for k in ("c1", "c2", "c3")}
        unit = 2 * mpf(sp.mass) / mpf(sp.hbar) ** 2

        def lam(k, sign, apm, E):  # sqrt(1/4 + sign c_k - 2 m a_pm E / hbar^2)
            return mpmath.sqrt(mpf(0.25) + sign * c[k] - unit * apm * E)

        def gap(E, nl):
            ap, am = (a + 2 * b) / 4, (a - 2 * b) / 4
            return (lam("c2", -1, ap, E) - lam("c3", -1, ap, E) - lam("c3", 1, am, E)
                    - lam("c1", 1, am, E) - 2 * nl - 2)

        for n in range(3):
            for l in range(3):
                (z,) = solve_quantization(DIV3, QuantumNumbers(n, l, "degelliptic2")).candidates
                ref = mpmath.findroot(lambda E: gap(E, n + l), mpf(z.real))
                worst = max(worst, float(abs(ref - mpf(z.real)) / (1 + abs(ref))))
    assert worst < 6.3e-13


def _heavy_div3(rng, c2_signs=(-1.0, 1.0)):
    """A seeded DIV_V3 spec with heavy-tailed couplings: a in [2, 50], |c1|, |c3|
    in [0.1, 1e3] and |c2| in [0.1, 1e4], each of either sign."""
    c = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-1.0, 3.0, 3)
    c[1] = rng.choice(c2_signs) * 10.0 ** rng.uniform(-1.0, 4.0)
    return PotentialSpec(SpaceParams(DIV, float(rng.uniform(2.0, 50.0)), 1.0), "DIV_V3",
                         dict(zip(("c1", "c2", "c3"), c.tolist())))


def test_div_v3_gap_increases_where_c3_is_at_least_c2_and_stays_below_minus_2_elsewhere():
    # the shape the one-bracket solve rests on, over the whole window below
    # E_top on a geometric grid of depths from 1e-6 to 1e6 units
    from darboux.families import FAMILIES

    rec = FAMILIES["DIV_V3"]
    rng = np.random.default_rng(32)
    seen = {True: 0, False: 0}
    for _ in range(300):
        spec = _heavy_div3(rng)
        lo, top = rec.first_bracket(spec)
        es = top - (top - lo) * np.geomspace(1e6, 1e-6, 2001)  # increasing
        for n, l in ((0, 0), (2, 1), (5, 5)):
            g = rec.gap(spec, QuantumNumbers(n, l, "degelliptic2"), es)
            assert not np.isnan(g).any()
            ordered = spec.c("c3") >= spec.c("c2")
            seen[ordered] += 1
            if ordered:
                assert (np.diff(g) >= 0).all(), spec.couplings
            else:
                assert (g < -2.0).all(), spec.couplings
    assert min(seen.values()) >= 300


def test_div_v3_existence_certificate():
    # heavy-tailed couplings: NoRootError exactly where the 30-digit gap is not
    # positive at E_top, and otherwise the one root against mpmath's bracketed
    # solve of the same condition on a widened bracket.  Some levels lie below
    # the fixed depth of 400 hbar^2/(2 m a_+) (1 + n + l)^2 under E_top that a
    # scan window would stop at
    import mpmath
    from mpmath import mpf

    from darboux.errors import NoRootError

    rng = np.random.default_rng(2032)
    found = deep = worst = 0
    with mpmath.workdps(30):
        for _ in range(150):
            spec = _heavy_div3(rng, c2_signs=(-1.0, -1.0, 1.0))
            sp = spec.space
            a, b, unit = mpf(sp.a), mpf(sp.b), 2 * mpf(sp.mass) / mpf(sp.hbar) ** 2
            c = {k: mpf(spec.c(k)) for k in ("c1", "c2", "c3")}
            apm = {"p": (a + 2 * b) / 4, "m": (a - 2 * b) / 4}
            squares = [(k, -1, "p") for k in ("c2", "c3")] + [(k, 1, "m") for k in ("c3", "c1")]

            def lam(k, sign, pm, E):
                sq = mpf(0.25) + sign * c[k] - unit * apm[pm] * E
                assert sq > 0
                return mpmath.sqrt(sq)

            # just below 0 and below the energy where an index turns complex
            top = min(0, *((mpf(0.25) + sign * c[k]) / (unit * apm[pm])
                           for k, sign, pm in squares)) - mpf(1e-12)
            for n, l in ((0, 0), (2, 1), (5, 5)):
                def gap(E):
                    l2p, l3p, l3m, l1m = (lam(*sq, E) for sq in squares)
                    return l2p - l3p - l3m - l1m - 2 * (n + l) - 2

                qn = QuantumNumbers(n, l, "degelliptic2")
                if not gap(top) > 0:
                    with pytest.raises(NoRootError):
                        solve_quantization(spec, qn)
                    continue
                roots = solve_quantization(spec, qn)
                (z,) = roots.candidates
                (adm,) = roots.admissible
                assert adm["admissible"] and adm["residual"] < 1e-9
                e_lo = mpf(z.real) - (1 + abs(mpf(z.real)))
                assert gap(e_lo) < 0
                ref = mpmath.findroot(gap, (e_lo, top), solver="anderson")
                worst = max(worst, float(abs(ref - mpf(z.real)) / (1 + abs(ref))))
                found += 1
                deep += ref < top - 400 * (1 + n + l) ** 2 / (unit * apm["p"])
    assert found >= 30 and deep >= 3
    assert worst < 6.3e-13


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
