import math

import numpy as np
import pytest
from scipy.integrate import quad

import darboux.specfun as sf
from darboux.errors import ParamError, PoleError
from darboux.specfun import (
    ModelFamily,
    gamma_complex,
    hyp2f1,
    model_domain,
    model_eigenfunction,
    model_eigenvalue,
    model_max_index,
    model_potential,
    orthopoly_eval,
)

HB = 1.0


def fd_residual(fam, index, x, energy=None):
    """4th-order FD residual of the family's defining 1D equation."""
    psi = model_eigenfunction(fam, index, x)
    u = model_potential(fam)(x[2:-2])
    e = model_eigenvalue(fam, index) if energy is None else energy
    h = x[1] - x[0]
    c = fam.hbar ** 2 / (2 * fam.mass)
    d2 = (-psi[:-4] + 16 * psi[1:-3] - 30 * psi[2:-2] + 16 * psi[3:-1] - psi[4:]) / (12 * h * h)
    r = -c * d2 + (u - e) * psi[2:-2]
    return np.abs(r).max() / (max(abs(e), c) * np.abs(psi).max())


def test_orthopoly_examples():
    assert orthopoly_eval("hermite", 2, (), 1.0) == pytest.approx(2.0)
    assert orthopoly_eval("laguerre", 1, (0.5,), 0.25) == pytest.approx(1.25)
    assert orthopoly_eval("jacobi", 1, (0.0, 0.0), 0.3) == pytest.approx(0.3)


def test_orthopoly_complex_laguerre():
    val = orthopoly_eval("laguerre", 2, (0.5 + 0.2j,), 0.3 + 0.1j)
    a, x = 0.5 + 0.2j, 0.3 + 0.1j
    ref = x * x / 2 - (a + 2) * x + (a + 1) * (a + 2) / 2
    assert abs(complex(val) - ref) < 1e-13


def test_hyp2f1_pole():
    with pytest.raises(PoleError):
        hyp2f1(0.5, 0.7, -2.0, 0.3)
    # terminating numerator protects against the pole
    assert abs(hyp2f1(-1.0, 0.7, -2.0, 0.3) - (1 - 0.7 * 0.3 / (-2))) < 1e-14


def test_model_eigenvalues():
    assert model_eigenvalue(ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5}), 0) == -2.0
    assert model_eigenvalue(ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5}), 1) == -0.5
    assert model_eigenvalue(ModelFamily(sf.PT, {"alpha": 0.5, "beta": 0.5}), 0) == pytest.approx(2.0)
    assert model_eigenvalue(ModelFamily(sf.HO, {"omega": 2.0}), 3) == pytest.approx(7.0)
    assert model_eigenvalue(ModelFamily(sf.RHO, {"omega": 1.0, "lam": 0.5}), 0) == pytest.approx(1.5)


def test_model_index_limits():
    fam = ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5})
    assert model_max_index(fam) == 1
    with pytest.raises(IndexError):
        model_eigenvalue(fam, 2)
    fam = ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 5.5})
    assert model_max_index(fam) == 1
    with pytest.raises(IndexError):
        model_eigenfunction(fam, 5, 1.0)


def test_ho_ground_state_value():
    fam = ModelFamily(sf.HO, {"omega": 1.0})
    assert model_eigenfunction(fam, 0, 0.0) == pytest.approx((1 / math.pi) ** 0.25)


def test_pt_normalization_quadrature():
    fam = ModelFamily(sf.PT, {"alpha": 0.5, "beta": 0.5})
    val = quad(lambda t: float(model_eigenfunction(fam, 0, t)) ** 2, 0, math.pi / 2)[0]
    assert val == pytest.approx(1.0, abs=1e-8)


def test_morse_node_counts():
    fam = ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5})
    x = np.linspace(-12, 2.2, 4001)
    for n in range(2):
        psi = np.real(model_eigenfunction(fam, n, x))
        sgn = np.sign(psi[np.abs(psi) > 1e-8 * np.abs(psi).max()])
        assert int(np.sum(sgn[1:] * sgn[:-1] < 0)) == n


def test_node_counts_all_real_families():
    cases = [
        (ModelFamily(sf.HO, {"omega": 1.0}), np.linspace(-7, 7, 3001)),
        (ModelFamily(sf.RHO, {"omega": 1.0, "lam": 0.7}), np.linspace(1e-3, 8, 3001)),
        (ModelFamily(sf.PT, {"alpha": 1.0, "beta": 2.0}), np.linspace(1e-3, math.pi / 2 - 1e-3, 3001)),
        (ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5}), np.linspace(1e-3, 14, 4001)),
    ]
    for fam, x in cases:
        for n in range(3):
            psi = np.real(model_eigenfunction(fam, n, x))
            sgn = np.sign(psi[np.abs(psi) > 1e-7 * np.abs(psi).max()])
            assert int(np.sum(sgn[1:] * sgn[:-1] < 0)) == n


def test_orthonormality_bound_families():
    cases = [
        ModelFamily(sf.HO, {"omega": 1.0}),
        ModelFamily(sf.RHO, {"omega": 1.0, "lam": 0.7}),
        ModelFamily(sf.PT, {"alpha": 1.0, "beta": 2.0}),
        ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5}),
        ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 4.2}),
    ]
    for fam in cases:
        lo, hi = model_domain(fam.tag)
        lo, hi = max(lo, -30.0), min(hi, 30.0)
        top = model_max_index(fam)
        nmax = 3 if top is None else min(3, top)
        for m_ in range(nmax + 1):
            for n_ in range(m_, nmax + 1):
                val = quad(lambda t: float(np.real(
                    model_eigenfunction(fam, m_, t) * model_eigenfunction(fam, n_, t))),
                    lo, hi, limit=400)[0]
                assert abs(val - (1.0 if m_ == n_ else 0.0)) < 1e-7


# a case for every row of the model table: (family, grid, highest level checked)
ODE_CASES = {
    sf.HO: (ModelFamily(sf.HO, {"omega": 1.0}), np.linspace(-8, 8, 3001), 3),
    sf.RHO: (ModelFamily(sf.RHO, {"omega": 1.0, "lam": 0.5}), np.linspace(0.05, 9, 3001), 3),
    sf.PT: (ModelFamily(sf.PT, {"alpha": 1.0, "beta": 2.0}),
            np.linspace(0.02, math.pi / 2 - 0.02, 3001), 3),
    sf.MPT_BOUND: (ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5}),
                   np.linspace(0.05, 12, 4001), 3),
    sf.MORSE_BOUND: (ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5}),
                     np.linspace(-12, 2.2, 4001), 1),
    sf.CMORSE: (ModelFamily(sf.CMORSE, {"c1": 0.8, "c2": 1.2}),
                np.linspace(0.0, 2 * math.pi, 4001), 2),
}


@pytest.mark.parametrize("tag", list(sf.MODELS))
def test_ode_residuals_bound_families(tag):
    fam, x, nmax = ODE_CASES[tag]
    for n in range(nmax + 1):
        assert fd_residual(fam, n, x) < 1e-6


def test_cmorse_real_spectrum_and_ode():
    fam = ModelFamily(sf.CMORSE, {"c1": 0.8, "c2": 1.2})
    assert model_max_index(fam) == 2
    x = np.linspace(0.0, 2 * math.pi, 4001)
    for n in range(3):
        e = model_eigenvalue(fam, n)
        assert complex(e).imag == 0.0
        psi = model_eigenfunction(fam, n, x)
        u = model_potential(fam)(x[2:-2])
        h = x[1] - x[0]
        d2 = (-psi[:-4] + 16 * psi[1:-3] - 30 * psi[2:-2] + 16 * psi[3:-1] - psi[4:]) / (12 * h * h)
        r = -0.5 * d2 + (u - e) * psi[2:-2]
        assert np.abs(r).max() / (abs(e) * np.abs(psi).max()) < 1e-6


def test_mpt_sign_branches_exposed():
    plus = ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 5.5})
    minus = ModelFamily(sf.MPT_BOUND, {"eta": -0.5, "nu": 5.5})
    assert model_eigenvalue(plus, 0) != model_eigenvalue(minus, 0)


MPT_BOUND_FAMS = [
    ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5}),
    ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 5.5}),
    ModelFamily(sf.MPT_BOUND, {"eta": 2.0, "nu": 6.0}),
    ModelFamily(sf.MPT_BOUND, {"eta": -0.5, "nu": 5.5}),
]


def _mpt_bound_mpmath(mp, fam, x):
    """Every level of ``fam`` at the points x, as float arrays of x's shape, from
    the closed form with 2F1(-n, n + 1 - 2k1 + 2k2; 2k2; -sinh^2 x), its
    terminating series (DLMF 15.2.1) summed in mpmath."""
    k1, k2 = (mp.mpf(k) for k in sf._mpt_k12(*fam.args))
    sc = [(mp.sinh(t), mp.cosh(t)) for t in map(mp.mpf, np.ravel(x))]
    shape = [s ** (2 * k2 - 0.5) * c ** (1.5 - 2 * k1) for s, c in sc]
    z = [-s * s for s, _ in sc]
    g = mp.gamma
    levels = []
    for n in range(model_max_index(fam) + 1):
        kap = k1 - k2 - n
        pref = mp.sqrt(abs(2 * (2 * kap - 1) * g(k1 + k2 - kap) * g(k1 + k2 + kap - 1)
                           / (g(k1 - k2 + kap) * g(k1 - k2 - kap + 1)))) / abs(g(2 * k2))
        a, b = -k1 + k2 + kap, -k1 + k2 - kap + 1
        coef = [pref * mp.rf(a, k) * mp.rf(b, k) / (mp.rf(2 * k2, k) * mp.factorial(k))
                for k in range(n, -1, -1)]
        levels.append(np.array([float(s * mp.polyval(coef, zz)) for s, zz in zip(shape, z)])
                      .reshape(np.shape(x)))
    return levels


def test_mpt_bound_array_matches_pointwise():
    # the grid of the oracle's domain, a 2-D grid and one point against the
    # closed form at 30 digits.  Worst deviation measured: 1.88e-15 max|psi|,
    # at eta = 0.5, nu = 5.5, n = 1 at x = 0.7; the bound is that of
    # test_mpt_bound_eigenfunctions_against_mpmath.  Next to a node the
    # pointwise relative deviation on the line reaches 1.5e-12 (5.3e-13 with
    # the 2F1 sum), so it is bounded on test_mpt_bound_against_mpmath's grid only
    import mpmath as mp

    line = np.linspace(1e-8, 40.0, 6001)
    plane = np.linspace(0.01, 6.0, 41)[:, None] + np.linspace(0.0, 1.0, 7)[None, :]
    with mp.workdps(30):
        for fam in MPT_BOUND_FAMS:
            for x in (line, plane, np.asarray(0.7)):
                for n, ref in enumerate(_mpt_bound_mpmath(mp, fam, x)):
                    got = model_eigenfunction(fam, n, x)
                    assert got.shape == x.shape
                    assert np.abs(got - ref).max() < 1e-14 * np.abs(ref).max(), (fam, n, x.shape)


def test_mpt_bound_eigenfunctions_against_mpmath():
    # every level of the four parameter sets against the closed form at 30
    # digits; worst deviation measured: 1.55e-15 max|psi|, at eta = 0.5,
    # nu = 5.5, n = 1 (1.63e-15 with the 2F1 sum).  The bound is 1e-14 max|psi|
    import mpmath as mp

    x = np.linspace(1e-3, 12.0, 241)
    with mp.workdps(30):
        for fam in MPT_BOUND_FAMS:
            for n, ref in enumerate(_mpt_bound_mpmath(mp, fam, x)):
                psi = model_eigenfunction(fam, n, x)
                assert np.abs(psi - ref).max() < 1e-14 * np.abs(ref).max(), (fam, n)


def test_hyp2f1_terminating_array():
    z = -np.sinh(np.linspace(0.0, 5.0, 101)) ** 2
    for a, b, c in [(-3.0, 5.25, 1.5), (2.5, -2.0, 0.75), (-4.0, -1.5, -0.5)]:
        got = hyp2f1(a, b, c, z)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array([hyp2f1(a, b, c, t).real for t in z]))
    assert np.array_equal(hyp2f1(0.0, 0.7, 1.5, z), np.ones_like(z))
    zz = np.array([[0.3, -1.2], [4.0, -7.5]])
    # the terminating numerator protects against the pole at c = -2
    assert np.abs(hyp2f1(-1.0, 0.7, -2.0, zz) - (1 - 0.7 * zz / (-2))).max() < 1e-14
    with pytest.raises(PoleError):
        hyp2f1(0.5, 0.7, -2.0, zz)
    with pytest.raises(ParamError):
        hyp2f1(0.5, 0.7, 1.5, zz)
    with pytest.raises(ParamError):
        hyp2f1(0.5, 0.7, 1.5, 0.3)
    # complex parameters sum in complex arithmetic
    got = hyp2f1(-2.0, 0.3 + 0.5j, 1.5, zz)
    ref = np.array([[hyp2f1(-2.0, 0.3 + 0.5j, 1.5, t) for t in row] for row in zz])
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    assert isinstance(hyp2f1(-2.0, 0.7, 1.5, 0.3), complex)
    assert isinstance(hyp2f1(-2.0, 0.7, 1.5, np.float64(0.3)), complex)


def test_mpt_bound_against_mpmath():
    # worst pointwise relative deviations measured at n = 0..3 on this grid:
    # 2.07e-14 for the 2F1 at n = 2 and 1.40e-14 for the eigenfunction at
    # n = 1, next to nodes (3.60e-14 with the 2F1 sum); the bounds are 10x
    # the 2F1 sum's
    import mpmath as mp

    with mp.workdps(30):
        _check_mpt_bound_against_mpmath(mp)


def _check_mpt_bound_against_mpmath(mp):
    fam = ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5})
    k1, k2 = sf._mpt_k12(*fam.args)
    x = np.linspace(1e-3, 12.0, 200)
    z = np.array([-math.sinh(t) ** 2 for t in x])
    K1, K2 = mp.mpf(k1), mp.mpf(k2)
    for n in range(4):
        kap = k1 - k2 - n
        a, b, c = -k1 + k2 + kap, -k1 + k2 - kap + 1.0, 2.0 * k2
        ref = np.array([float(mp.hyp2f1(a, b, c, t)) for t in z])
        assert np.max(np.abs(hyp2f1(a, b, c, z) - ref) / np.abs(ref)) < 2.1e-13
        KAP = K1 - K2 - n
        g = mp.gamma
        pref = mp.sqrt(abs(2 * (2 * KAP - 1) * g(K1 + K2 - KAP) * g(K1 + K2 + KAP - 1)
                           / (g(K1 - K2 + KAP) * g(K1 - K2 - KAP + 1)))) / abs(g(2 * K2))
        psi_ref = np.array([
            float(pref * mp.sinh(t) ** (2 * K2 - 0.5) * mp.cosh(t) ** (1.5 - 2 * K1)
                  * mp.hyp2f1(a, b, c, -mp.sinh(t) ** 2))
            for t in map(mp.mpf, x)
        ])
        psi = model_eigenfunction(fam, n, x)
        assert np.max(np.abs(psi - psi_ref) / np.abs(psi_ref)) < 3.6e-13


def test_bound_norms_against_mpmath():
    # the integral of psi_n^2 over the natural domain (clipped to |x| <= 30;
    # the largest tail left out, Morse n = 3 below -30, is about 7e-18) by
    # mpmath.quad at 30 digits, for
    # n = 0..3 or up to the top of the ladder.  Worst deviation from 1
    # measured: 5.0e-15, at Morse n = 0; the bound is 10x that
    import mpmath as mp

    cases = [
        ModelFamily(sf.HO, {"omega": 1.0}),
        ModelFamily(sf.RHO, {"omega": 1.0, "lam": 0.7}),
        ModelFamily(sf.PT, {"alpha": 1.0, "beta": 2.0}),
        ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5}),
        ModelFamily(sf.MPT_BOUND, {"eta": -0.3, "nu": 5.5}),
        ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 4.2}),
        ModelFamily(sf.RHO, {"omega": 1.0, "lam": 0.7}, hbar=0.7, mass=1.3),
        ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 4.2}, hbar=0.7, mass=1.3),
    ]
    devs = []
    with mp.workdps(30):
        for fam in cases:
            lo, hi = model_domain(fam.tag)
            pieces = list(np.linspace(max(lo, -30.0), min(hi, 30.0), 7))
            top = model_max_index(fam)
            for n in range(4 if top is None else min(3, top) + 1):
                val = mp.quad(lambda t: float(model_eigenfunction(fam, n, float(t))) ** 2, pieces)
                devs.append((abs(float(val) - 1.0), f"{fam} n={n}"))
        # PT at alpha = beta <= -1/2, where the parent formula failed at n = 0:
        # psi^2 ~ d^(2 alpha + 1) at both walls, and no double comes within
        # 1e-16 of the cos wall.  So the reflection x -> pi/2 - x, which swaps
        # alpha and beta, doubles the integral over (0, pi/4), taken in
        # w = x^(1/5).  Worst deviation measured: 2.7e-15, at alpha = -0.9, n = 2
        for al in (-0.9, -0.5):
            fam = ModelFamily(sf.PT, {"alpha": al, "beta": al})
            for n in range(4):
                val = 2 * mp.quad(lambda w: 5 * w ** 4 * float(
                    model_eigenfunction(fam, n, float(w ** 5))) ** 2, [0, (mp.pi / 4) ** 0.2])
                devs.append((abs(float(val) - 1.0), f"{fam} n={n}"))
    worst = max(devs)
    assert worst[0] < 5e-14, worst


def test_gamma_complex_against_mpmath():
    # mpmath's Gamma (DLMF §5) at 30 digits, over both half-planes: Re z < 1/2
    # takes the reflection branch.  Worst relative deviation measured on this
    # grid: 4.58e-14, at z = 0.75 - 8i; the bound is 10x that, rounded up
    import mpmath as mp

    worst = 0.0
    with mp.workdps(30):
        for x in np.linspace(-5.75, 11.75, 36):  # steps of 1/2, never a pole
            for y in (-8.0, -2.5, -1.0, -0.25, 0.0, 0.25, 1.0, 2.5, 8.0):
                ref = complex(mp.gamma(mp.mpc(x, y)))
                worst = max(worst, abs(gamma_complex(complex(x, y)) - ref) / abs(ref))
    assert worst < 4.6e-13
