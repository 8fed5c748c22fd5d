import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import darboux.specfun as sf
from darboux.errors import DomainError, ParamError, ResolutionError, UnsupportedChartError
from darboux.geometry import DIII, DIV, SpaceParams
from darboux.oracle import Grid1D, fd_eigensolve_1d, separated_ode_residual, verify_building_block
from darboux.potentials import PotentialSpec
from darboux.spectra import QuantumNumbers, solve_quantization
from darboux.verify import BUILDING_BLOCKS

SP1 = SpaceParams(DIII, 1.0, 1.0)
SP4 = SpaceParams(DIV, 3.0, 1.0)


def test_particle_in_a_box_self_consistency():
    L = 2.0
    grid = Grid1D(0.0, L, 1200)
    pairs = fd_eigensolve_1d(lambda x: np.zeros_like(x), grid, 5)
    for k, (e, xs, vec) in enumerate(pairs, start=1):
        assert e == pytest.approx(0.5 * (k * math.pi / L) ** 2, abs=1e-8)


def test_morse_pt_rho_reference_levels():
    morse = sf.ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5})
    rep = verify_building_block(morse, 1)
    assert rep.details[0]["E_num"] == pytest.approx(-2.0, abs=1e-6)
    assert rep.details[1]["E_num"] == pytest.approx(-0.5, abs=1e-6)
    pt = sf.ModelFamily(sf.PT, {"alpha": 0.5, "beta": 0.5})
    rep = verify_building_block(pt, 0)
    assert rep.details[0]["E_num"] == pytest.approx(2.0, abs=1e-6)
    rho = sf.ModelFamily(sf.RHO, {"omega": 1.0, "lam": 0.5})
    rep = verify_building_block(rho, 0)
    assert rep.details[0]["E_num"] == pytest.approx(1.5, abs=1e-6)


def test_building_block_certification():
    fams = [
        (sf.ModelFamily(sf.HO, {"omega": 1.0}), 3, 3200),
        (sf.ModelFamily(sf.RHO, {"omega": 1.0, "lam": 1.5}), 3, 3200),
        (sf.ModelFamily(sf.PT, {"alpha": 1.0, "beta": 2.0}), 3, 3200),
        (sf.ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5}), 3, 4400),
        (sf.ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5}), 1, 3200),
    ]
    for fam, nmax, npts in fams:
        rep = verify_building_block(fam, nmax, n_points=npts)
        assert rep.max_dev_eigenvalue < 1e-6
        assert rep.max_dev_eigenvector < 1e-5


def test_mpt_spec_example():
    # k1 - k2 = 2.5 in the index convention of the bound ladder
    fam = sf.ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 5.5})
    rep = verify_building_block(fam, 1, n_points=4000)
    assert rep.max_dev_eigenvalue < 1e-6 and rep.max_dev_eigenvector < 1e-5


def test_resolution_error():
    morse = sf.ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5})
    grid = Grid1D(-30.0, 2.3, 64)
    with pytest.raises(ResolutionError):
        fd_eigensolve_1d(sf.model_potential(morse), grid, 2)
    # the levels and the next one up need the pilot grid's interior rows (n // 4 points)
    with pytest.raises(ResolutionError, match="pilot grid"):
        fd_eigensolve_1d(lambda x: np.zeros_like(x), Grid1D(0.0, 1.0, 64), 15)


def test_verify_rejects_nonconfining():
    with pytest.raises(ParamError):
        verify_building_block(sf.ModelFamily(sf.CMORSE, {"c1": 1.0, "c2": 1.0}), 1)
    with pytest.raises(ParamError, match="no real confining profile"):
        verify_building_block(sf.ModelFamily(sf.WAVE), 1)
    with pytest.raises(ParamError):
        verify_building_block(sf.ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5}), 4)


@pytest.mark.parametrize("fam", [sf.ModelFamily(sf.HO, {"omega": -1.0}),
                                 sf.ModelFamily(sf.RHO, {"omega": -1.0, "lam": 0.5})])
def test_verify_refuses_a_row_at_negative_frequency(fam):
    # such a row holds growing partners, which no walled eigensolve reproduces
    with pytest.raises(ParamError, match="negative frequency"):
        verify_building_block(fam, 1)


@pytest.mark.parametrize("params", [{"v0": 1.0, "alpha_t": 2.5}, {"v0": -1.0, "alpha_t": -2.5}])
def test_verify_refuses_the_unladdered_morse_row(params):
    # the Morse row without a ladder top holds shapes past the ladder and
    # growing partners, and it has no oracle interval
    with pytest.raises(ParamError, match="no real confining profile"):
        verify_building_block(sf.ModelFamily(sf.MORSE, params), 1)


# (family, couplings, chart, quantum numbers, axes) of the separated problems
# whose factors must solve their 1D equations at a quantization root
RESIDUAL_CASES = [
    ("DIII_V5", {"v0": 0.0}, "uv", (0, 1, "uv"), (0, 1)),
    ("DIII_V5", {"v0": 0.0}, "polar", (1, 1, "polar"), (0, 1)),
    ("DIII_V5", {"v0": 0.0}, "parabolic", (1, 1, "parabolic"), (0, 1)),
    ("DIII_V5", {"v0": 0.0}, "hyperbolic", (1, 1, "hyperbolic"), (0, 1)),
    ("DIII_V2", {"alpha": 1.0, "k1": 0.5, "k2": 0.5}, "uv", (0, 0, "uv"), (0, 1)),
    ("DIII_V2", {"alpha": 1.0, "k1": 0.5, "k2": 0.5}, "polar", (0, 0, "polar"), (0, 1)),
    ("DIII_V2", {"alpha": 0.0, "k1": 0.3, "k2": 0.7}, "parabolic", (1, 1, "parabolic"), (0, 1)),
    ("DIII_V3", {"alpha": 0.0, "c1": 1.2, "c2": 0.8}, "polar", (0, 0, "polar"), (0, 1)),
    ("DIII_V4", {"d1": -1.5, "d2": -0.5, "omega": 1.0}, "hyperbolic", (0, 0, "hyperbolic"), (0, 1)),
    ("DIII_V1", {"k1": 0.4, "k2": 0.3, "k3": 0.2}, "parabolic", (1, 0, "parabolic"), (0, 1)),
    ("DIV_V1", {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0}, "uv", (0, 0, "uv"), (0, 1)),
    ("DIV_V1", {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0}, "horospherical",
     (0, 0, "horospherical"), (0, 1)),
    ("DIV_V2", {"k1": 2.0, "k2": 6.0, "k3": 0.5}, "uv", (0, 0, "uv"), (0, 1)),
    ("DIV_V3", {"c1": 0.3, "c2": -200.0, "c3": 0.2}, "degelliptic2",
     (0, 0, "degelliptic2"), (0, 1)),
    ("DIII_V5", {"v0": 0.6}, "parabolic", (1, 1, "parabolic"), (0, 1)),
    # v0 != 0 shifts the linear term of the Morse log-axes
    ("DIII_V5", {"v0": 0.6}, "uv", (0, 1, "uv"), (0, 1)),
    ("DIII_V5", {"v0": 0.6}, "hyperbolic", (1, 1, "hyperbolic"), (0, 1)),
    # the angle's own index, l, at n != l
    ("DIII_V3", {"alpha": 0.0, "c1": 1.2, "c2": 0.8}, "polar", (1, 0, "polar"), (0, 1)),
    ("DIII_V2", {"alpha": 0.0, "k1": 0.3, "k2": 0.7}, "uv", (1, 0, "uv"), (0, 1)),
    ("DIII_V2", {"alpha": 0.0, "k1": 0.3, "k2": 0.7}, "polar", (0, 2, "polar"), (0, 1)),
    # a plane wave of negative momentum
    ("DIII_V5", {"v0": 0.6}, "polar", (1, -2, "polar"), (0, 1)),
]


def _check_residual_at_root(family, coup, chart, qn, axes, hbar, mass):
    sp = replace(SP1 if family.startswith("DIII") else SP4, hbar=hbar, mass=mass)
    spec = PotentialSpec(sp, family, coup)
    q = QuantumNumbers(*qn)
    roots = solve_quantization(spec, q)
    good = [r for r in roots.admissible
            if r["admissible"] and r["satisfies_unsquared"] and r["E"] != 0.0]
    assert good, "no admissible root to test"
    E = good[0]["E"]
    for ax in axes:
        assert separated_ode_residual(spec, chart, q, E, axis=ax) < 1e-6


@pytest.mark.parametrize("family,coup,chart,qn,axes", RESIDUAL_CASES)
def test_separated_ode_residual_at_roots(family, coup, chart, qn, axes):
    _check_residual_at_root(family, coup, chart, qn, axes, 1.0, 1.0)


@pytest.mark.parametrize("family,coup,chart,qn,axes", RESIDUAL_CASES)
def test_separated_ode_residual_at_roots_non_unit_hbar_mass(family, coup, chart, qn, axes):
    # the hbar and mass of every separation enter only away from hbar = m = 1;
    # there (a E - alpha)^2 = -hbar^2 M^2 b E / 2m has real roots only for
    # alpha <= hbar^2 M^2 b / (8 m a), which is 0.42 for DIII_V2 at M = 3
    if family == "DIII_V2":
        coup = {**coup, "alpha": min(coup["alpha"], 0.4)}
    _check_residual_at_root(family, coup, chart, qn, axes, 0.7, 1.3)


def test_energy_closure_sharp_minimum():
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    qn = QuantumNumbers(0, 1, "uv")
    assert separated_ode_residual(spec, "uv", qn, -4.5) < 1e-6
    for fac in (0.95, 1.05):
        assert separated_ode_residual(spec, "uv", qn, -4.5 * fac) > 1e-2
    spec4 = PotentialSpec(SP1, "DIII_V4", {"d1": -1.5, "d2": -0.5, "omega": 1.0})
    qn4 = QuantumNumbers(0, 0, "hyperbolic")
    assert separated_ode_residual(spec4, "hyperbolic", qn4, -3.0) < 1e-6
    for fac in (0.95, 1.05):
        assert separated_ode_residual(spec4, "hyperbolic", qn4, -3.0 * fac) > 1e-2


@pytest.mark.parametrize("axis", [1, 2, -1])
def test_ode_residual_of_an_axis_not_separated_names_it(axis):
    # DIII_V5 separates both axes of uv but not the elliptic chart: axis 1 of
    # elliptic, and an axis past 1 or a negative one of uv, are unsupported,
    # not another axis
    spec = PotentialSpec(SP1, "DIII_V5", {"v0": 0.0})
    chart = "elliptic" if axis == 1 else "uv"
    with pytest.raises(UnsupportedChartError) as err:
        separated_ode_residual(spec, chart, QuantumNumbers(0, 1, chart), -4.5, axis=axis)
    assert str(err.value) == f"DIII_V5 is not separated in chart {chart!r} (axis {axis})"


def test_mpt_bound_building_block_orthopoly_calls(monkeypatch):
    # one Jacobi recurrence per eigenfunction evaluation: the truncated domain
    # and the comparison of each level, not one call per grid point
    fam = sf.ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5})
    n_max = 3
    verify_building_block(fam, n_max, n_points=4400)  # a first run, uncounted
    calls = []
    original = sf.orthopoly_eval

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sf, "orthopoly_eval", counted)
    verify_building_block(fam, n_max, n_points=4400)
    assert 0 < len(calls) <= 2 * (n_max + 1)


# the seven pinned blocks of verify.suite_building_blocks: (family, n_max, n_points)
SUITE_BLOCKS = [block[:3] for block in BUILDING_BLOCKS]


@pytest.mark.parametrize("fam,n_max,n_points", SUITE_BLOCKS,
                         ids=["Morse", "PT-pinned", "RHO-pinned", "HO", "RHO", "PT", "MPT"])
def test_refined_levels_match_bisection(fam, n_max, n_points, monkeypatch):
    # each level that inverse iteration refines from the pilot grid (n // 4)
    # onto the grids n, 2n - 1 and 4n - 3 lies within eps ||T||_1 of the
    # bisection level of the same matrix
    from scipy.linalg import eigh_tridiagonal

    import darboux.oracle as oracle

    refined = []
    original = oracle._eigenpairs

    def recorded(profile, xs, n_states, hbar, mass, coarse=None):
        levels, vectors = original(profile, xs, n_states, hbar, mass, coarse)
        if coarse is not None:
            refined.append((profile, xs, hbar, mass, levels))
        return levels, vectors

    monkeypatch.setattr(oracle, "_eigenpairs", recorded)
    verify_building_block(fam, n_max, n_points=n_points)
    assert [len(xs) for _, xs, *_ in refined] == [n_points, 2 * n_points - 1, 4 * n_points - 3]
    for profile, xs, hbar, mass, levels in refined:
        h = xs[1] - xs[0]
        kin = hbar * hbar / (2.0 * mass * h * h)
        diag = 2.0 * kin + profile(xs[1:-1])
        off = np.full(len(diag) - 1, -kin)
        bisected = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                    select_range=(0, n_max))
        norm1 = np.max(np.abs(diag) + np.pad(np.abs(off), (1, 0)) + np.pad(np.abs(off), (0, 1)))
        assert np.all(np.abs(levels - bisected) <= np.finfo(float).eps * norm1)


@pytest.mark.parametrize("fam,guard", [(SUITE_BLOCKS[0][0], "left its seed"),
                                       (SUITE_BLOCKS[3][0], "out of order")], ids=["Morse", "HO"])
def test_seed_from_a_swapped_level_raises(fam, guard, monkeypatch):
    # the coarse vectors of levels 0 and 1 trade places: inverse iteration
    # shifted by one level from the other's vector must not return a level.
    # On the symmetric HO grid the parity of a seed is kept, so each iterate
    # stays on its seed's level and the levels come out in the wrong order.
    import darboux.oracle as oracle

    lo, hi = sf.model_domain(fam.tag) if fam.tag == sf.HO else (-6.0, 1.5)
    grid = Grid1D(max(lo, -8.0), min(hi, 8.0), 1600)
    assert len(fd_eigensolve_1d(sf.model_potential(fam), grid, 2)) == 2  # unswapped: resolved
    original = oracle._bisect

    def swapped(*args, **kwargs):
        levels, vectors = original(*args, **kwargs)
        return levels, vectors[:, [1, 0] + list(range(2, vectors.shape[1]))]

    monkeypatch.setattr(oracle, "_bisect", swapped)
    with pytest.raises(ResolutionError, match=guard):
        fd_eigensolve_1d(sf.model_potential(fam), grid, 2)


def test_one_bisection_per_eigensolve(monkeypatch):
    import darboux.oracle as oracle

    calls = []
    original = oracle._bisect

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "_bisect", counted)
    fam, n_max, n_points = SUITE_BLOCKS[6]
    verify_building_block(fam, n_max, n_points=n_points)
    assert calls == [n_points // 4 - 2]  # the pilot grid's interior
    pairs = fd_eigensolve_1d(lambda x: np.zeros_like(x), Grid1D(0.0, 1.0, 200), 3)
    assert len(calls) == 2 and len(pairs) == 3


@pytest.mark.parametrize("fam,n_max,n_points", SUITE_BLOCKS,
                         ids=["Morse", "PT-pinned", "RHO-pinned", "HO", "RHO", "PT", "MPT"])
def test_bisection_is_scipys_eigh_tridiagonal_bitwise(fam, n_max, n_points, monkeypatch):
    # _bisect makes the LAPACK calls of eigh_tridiagonal(select="i"), so on
    # each pilot matrix its levels and vectors are scipy's, bit for bit
    from scipy.linalg import eigh_tridiagonal

    import darboux.oracle as oracle

    pilots = []
    original = oracle._bisect

    def recorded(diag, off, k):
        pilots.append((diag, off, k, *original(diag, off, k)))
        return pilots[-1][3:]

    monkeypatch.setattr(oracle, "_bisect", recorded)
    verify_building_block(fam, n_max, n_points=n_points)
    [(diag, off, k, levels, vectors)] = pilots
    want_levels, want_vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    assert levels.shape == want_levels.shape == (n_max + 2,)
    assert vectors.shape == want_vectors.shape == (n_points // 4 - 2, n_max + 2)
    assert levels.tobytes() == want_levels.tobytes()
    assert vectors.tobytes() == want_vectors.tobytes()


def test_lapack_fallback_gives_the_same_blocks(monkeypatch, tmp_path):
    # where scipy's directory holds no linalg/_flapack extension, the routines
    # come from scipy.linalg.lapack, with the same results bit for bit
    import importlib.util

    import darboux.oracle as oracle

    def blocks():
        return [repr(verify_building_block(f, n, n_points=p)) for f, n, p in SUITE_BLOCKS]

    assert oracle._lapack().__name__ == "scipy.linalg._flapack"
    loaded = blocks()
    find_spec = importlib.util.find_spec
    no_extension = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: no_extension if name == "scipy" else find_spec(name, *a))
    oracle._lapack.cache_clear()
    try:
        assert oracle._lapack().__name__ == "scipy.linalg.lapack"
        assert blocks() == loaded
    finally:
        oracle._lapack.cache_clear()


@pytest.mark.parametrize("grid_points,index", [(400, 137), (4 * 1600 - 3, 1001)],
                         ids=["pilot", "finest-only"])
def test_non_finite_profile_is_a_domain_error(grid_points, index):
    # NaN at one point of the pilot grid, or at one point that only the finest
    # grid holds (the refined grids are solved by dgtsv, which checks nothing)
    grid = Grid1D(-8.0, 8.0, 1600)
    bad = grid.points(grid_points)[index]

    def profile(x):
        return np.where(x == bad, np.nan, 0.5 * x * x)

    assert np.isnan(profile(grid.points(400))).any() == (grid_points == 400)
    with pytest.raises(DomainError, match=f"not finite on the {grid_points}-point grid"):
        fd_eigensolve_1d(profile, grid, 2)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_failure_is_a_resolution_error(routine, monkeypatch):
    import darboux.oracle as oracle

    real = oracle._lapack()
    lapack = SimpleNamespace(dstebz=real.dstebz, dstein=real.dstein, dgtsv=real.dgtsv)
    setattr(lapack, routine, lambda *args: (*getattr(real, routine)(*args)[:-1], 1))
    monkeypatch.setattr(oracle, "_lapack", lambda: lapack)
    with pytest.raises(ResolutionError, match=r"\(info 1\)"):
        fd_eigensolve_1d(lambda x: 0.5 * x * x, Grid1D(-8.0, 8.0, 1600), 2)


def test_unconverged_pilot_raises(monkeypatch):
    # a pilot of n // 8 points leaves the MPT block's grid-n levels unconverged
    # after two inverse-iteration steps (one lands 256 eps ||T||_1 off
    # bisection); the residual bound must reject them
    fam, n_max, n_points = SUITE_BLOCKS[6]
    verify_building_block(fam, n_max, n_points=n_points)  # the n // 4 pilot: resolved
    original = Grid1D.points

    def coarser_pilot(self, n=None):
        return original(self, self.n_points // 8 if n == self.n_points // 4 else n)

    monkeypatch.setattr(Grid1D, "points", coarser_pilot)
    with pytest.raises(ResolutionError, match="unconverged"):
        verify_building_block(fam, n_max, n_points=n_points)


# E_num and dL2 (float.hex) of each level of the seven blocks of
# verify.BUILDING_BLOCKS, as the oracle gave them at commit a8ee6ee with a
# single BLAS thread: the oracle's speed-ups must leave every bit as it was.
# A BLAS that splits a dot product over threads sums it in another order, so
# the blocks run in a child process with one thread.
PINNED_BLOCK_NUMBERS = [
    [["-0x1.ffffffffff170p+0", "0x1.764e4764c6b12p-37"],
     ["-0x1.fffffffffa88dp-2", "0x1.6ca9c40c2e993p-35"]],
    [["0x1.0000000aefe22p+1", "0x1.6be3d18b92730p-30"]],
    [["0x1.8000003076a90p+0", "0x1.68422d8cb7d08p-27"]],
    [["0x1.00000000001acp-1", "0x1.d24a2213e5477p-42"],
     ["0x1.8000000000282p+0", "0x1.0f758b28366c8p-39"],
     ["0x1.4000000000216p+1", "0x1.72afa2b125fa3p-39"],
     ["0x1.c0000000002edp+1", "0x1.16a4dca854e26p-38"]],
    [["0x1.4000000000001p+1", "0x1.c6b9deaffe611p-41"],
     ["0x1.2000000000003p+2", "0x1.11a5e475936bep-40"],
     ["0x1.a000000000001p+2", "0x1.29e0d8665abf4p-39"],
     ["0x1.1000000000001p+3", "0x1.22e5f2ea14e65p-38"]],
    [["0x1.fffffff9456c6p+2", "0x1.3ef51e98dc56cp-28"],
     ["0x1.1ffffff9456c7p+4", "0x1.48a2e50c86802p-27"],
     ["0x1.ffffffef2d8f6p+4", "0x1.0c59ee1a41035p-26"],
     ["0x1.8fffffef2d8f1p+5", "0x1.87f852afad398p-26"]],
    [["-0x1.87ffffc4f5684p+4", "0x1.f967a1ebb3634p-26"],
     ["-0x1.8fffff89eadfbp+3", "0x1.5e90202008630p-25"],
     ["-0x1.1fffff5c8097ep+2", "0x1.9d1b75fc5ab8cp-25"],
     ["-0x1.fffffc6330f01p-2", "0x1.f02079192428fp-25"]],
]


def test_building_block_numbers_are_pinned():
    script = (
        "import json\n"
        "from darboux.oracle import verify_building_block\n"
        "from darboux.verify import BUILDING_BLOCKS\n"
        "print(json.dumps([[[d['E_num'].hex(), d['dL2'].hex()]\n"
        "                   for d in verify_building_block(f, n, n_points=p).details]\n"
        "                  for f, n, p, _ in BUILDING_BLOCKS]))\n"
    )
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == PINNED_BLOCK_NUMBERS


@pytest.mark.parametrize("fam,n_max,n_points", SUITE_BLOCKS,
                         ids=["Morse", "PT-pinned", "RHO-pinned", "HO", "RHO", "PT", "MPT"])
def test_nested_grids_and_profiles_agree_bitwise(fam, n_max, n_points):
    # fd_eigensolve_1d evaluates the profile once, on the interior of grid
    # 4n - 3, and reads grids 2n - 1 and n as its every 2nd and 4th point:
    # the points and the profile values must be those of a direct evaluation
    from darboux.oracle import _oracle_domain

    grid = Grid1D(*_oracle_domain(fam, n_max), n_points)
    profile = sf.model_potential(fam)
    fine_xs = grid.points(4 * n_points - 3)
    fine = profile(fine_xs[1:-1])
    for m, every in ((2 * n_points - 1, 2), (n_points, 4)):
        xs = grid.points(m)
        assert fine_xs[::every].tobytes() == xs.tobytes()
        assert fine[every - 1::every].tobytes() == profile(xs[1:-1]).tobytes()


def test_grids_nest_bitwise_on_random_intervals():
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        lo = float(rng.uniform(-50, 50))
        grid = Grid1D(lo, lo + float(10 ** rng.uniform(-3, 2)), int(rng.integers(64, 5000)))
        n = grid.n_points
        fine = grid.points(4 * n - 3)
        assert fine[::2].tobytes() == grid.points(2 * n - 1).tobytes()
        assert fine[::4].tobytes() == grid.points(n).tobytes()
