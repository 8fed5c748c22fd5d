"""Assembly of 2D bound states, weighted normalization, and PDE residuals.

A bound state is a product of two separation factors sampled on a chart
grid, with the measure prefactor the chart's reduction requires (1/sqrt(rho)
in the D_III polar chart, none in conformal charts, none in the hyperbolic
log variables).  ``hamiltonian_residual`` discretizes the chart Hamiltonian
with 4th-order central stencils and is the single gate that validates the
factors, the quantization roots, and the metric code together.

Negative-energy D_III states are exact solutions of the separated equations
but generically grow toward one chart boundary (the quantization there
reflects non-standard boundary conditions); the decay flag and the norm
tail check report this honestly rather than hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentNormError,
    GridError,
    NoAdmissibleRootError,
    ParamError,
    UnsupportedChartError,
)
from .geometry import Chart, SpaceParams, chart_transform, metric_diag, sqrt_g
from .potentials import PotentialSpec, potential_value, separated_problem
from .spectra import SCHEMES, QuantumNumbers, solve_quantization
from . import specfun as sf

@dataclass
class WaveField:
    """A sampled 2D wavefunction on a rectangular chart grid."""

    chart: str
    q1: np.ndarray
    q2: np.ndarray
    values: np.ndarray
    energy: float
    qn: QuantumNumbers
    spec: PotentialSpec
    norm_constant: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def spacings(self):
        return (self.q1[1] - self.q1[0], self.q2[1] - self.q2[0])


def pick_energy(spec: PotentialSpec, qn: QuantumNumbers, index: int = 0) -> float:
    """An admissible root of the quantization condition (sign-consistent
    roots preferred, then decaying ones, ascending in energy)."""
    roots = solve_quantization(spec, qn)
    good = [r for r in roots.admissible if r["admissible"] and r["satisfies_unsquared"]]
    if not good:
        good = [r for r in roots.admissible if r["admissible"]]
    good = [r for r in good if r["E"] != 0.0] or good
    if not good:
        raise NoAdmissibleRootError(f"{spec.family} at {qn} has no admissible root")
    good.sort(key=lambda r: (not r["decaying_wavefunction"], r["E"]))
    if index >= len(good):
        raise NoAdmissibleRootError(f"only {len(good)} admissible roots at {qn}")
    return good[index]["E"]


def _factor_pair(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers, E: float):
    """The two separation factor callables (axis 0 and axis 1) at energy E."""
    fam = spec.family
    hb, m = spec.space.hbar, spec.space.mass
    if fam == "DIII_V5" and chart_name in ("uv", "polar"):
        s0 = separated_problem(spec, chart_name, qn.l, axis=0)
        f0 = s0.factor(E, qn.n)
        ang = (lambda v: np.exp(1j * qn.l * v)) if chart_name == "uv" else (
            lambda p: np.exp(1j * qn.l * p)
        )
        return s0, f0, ang
    if fam == "DIII_V2" and chart_name in ("uv", "polar"):
        s0 = separated_problem(spec, chart_name, qn.l, axis=0)
        f0 = s0.factor(E, qn.n)
        pt = sf.ModelFamily(
            sf.PT,
            {"alpha": abs(spec.c("k2")), "beta": abs(spec.c("k1"))},
            hbar=hb, mass=m,
        )
        half = 0.5 if chart_name == "uv" else 1.0
        ang = lambda v: sf.model_eigenfunction(pt, qn.l, half * np.asarray(v))
        return s0, f0, ang
    # generic two-axis families
    s0 = separated_problem(spec, chart_name, qn.l, axis=0)
    s1 = separated_problem(spec, chart_name, qn.n, axis=1)
    return s0, s0.factor(E, qn.n), s1.factor(E, qn.l)


def default_grid(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers, E: float,
                 shape=None):
    """A sensible rectangular grid for the assembled state (401x201 unless
    ``shape`` is given; 301x201 for the DIV_V2 degelliptic2 pullback)."""
    fam = spec.family
    if _is_pullback(spec, chart_name):
        n1, n2 = shape or (301, 201)
        return np.linspace(0.35, 1.6, n1), np.linspace(0.25, math.pi / 4.0 - 0.12, n2)
    s0 = separated_problem(spec, chart_name, qn.l, axis=0)
    lo1, hi1 = s0.window(E, qn.n)
    if fam in ("DIII_V5", "DIII_V2") and chart_name == "uv":
        lo2, hi2 = (0.05, 2.0 * math.pi - 0.05) if fam == "DIII_V5" else (0.1, math.pi - 0.1)
    elif chart_name == "polar":
        lo2, hi2 = (0.05, 2.0 * math.pi - 0.05) if fam != "DIII_V2" else (0.05, math.pi / 2.0 - 0.05)
    else:
        try:
            lo2, hi2 = separated_problem(spec, chart_name, qn.n, axis=1).window(E, qn.l)
        except UnsupportedChartError:
            lo2, hi2 = lo1, hi1
    if chart_name == "hyperbolic":
        # keep a + b(mu - nu)/2 safely positive on the whole grid
        sp = spec.space
        lo1 = max(lo1, math.log(0.3))
        hi2 = min(hi2, math.log(math.exp(lo1) + 1.6 * sp.a / sp.b))
    n1, n2 = shape or (401, 201)
    return np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2)


def assemble_bound_state(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers,
                         grid=None, energy: float | None = None,
                         root_index: int = 0) -> WaveField:
    """Sample the separated product state on a chart grid.

    The quantum numbers must be counted in the chart's own scheme, except
    for the DIV_V2 degelliptic2 pullback, whose count does not read it.  The
    energy defaults to an admissible quantization root (callers select among
    several with ``energy=`` or ``root_index=``).  The log variables of the
    hyperbolic chart are sampled directly, i.e. the grid is in
    (x, y) = (ln mu, ln nu) there.
    """
    fam = spec.family
    if chart_name not in SCHEMES.get(fam, ()):
        raise UnsupportedChartError(f"{fam} states are not assembled in {chart_name!r}")
    if qn.scheme != chart_name and not _is_pullback(spec, chart_name):
        raise ParamError(f"quantum numbers counted in scheme {qn.scheme!r} "
                         f"do not label states in chart {chart_name!r}")
    if energy is None:
        energy = pick_energy(spec, qn, root_index)
    if grid is None:
        grid = default_grid(spec, chart_name, qn, energy)
    if _is_pullback(spec, chart_name):
        return _assemble_pullback(spec, chart_name, qn, grid, energy)
    q1, q2 = (np.asarray(grid[0], dtype=float), np.asarray(grid[1], dtype=float))
    s0, f1, f2 = _factor_pair(spec, chart_name, qn, energy)
    v1 = np.asarray(f1(q1))
    v2 = np.asarray(f2(q2))
    vals = np.outer(v1, v2).astype(complex)
    if chart_name == "polar":
        vals *= (q1 ** -0.5)[:, None]
    if not np.all(np.isfinite(vals)):
        raise GridError("assembled state not finite on this grid")
    return WaveField(chart_name, q1, q2, vals, float(energy), qn, spec)


def _is_pullback(spec: PotentialSpec, chart_name: str) -> bool:
    """DIV_V2 is assembled in degelliptic2 by pulling its (u, v) state back."""
    return spec.family == "DIV_V2" and chart_name == "degelliptic2"


def _assemble_pullback(spec, chart_name, qn, grid, energy):
    """Assemble in a chart by pulling the (u, v) state back through the map."""
    q1, q2 = (np.asarray(grid[0], dtype=float), np.asarray(grid[1], dtype=float))
    _, f1, f2 = _factor_pair(spec, "uv", qn, energy)
    c = chart_transform(spec.space, Chart(chart_name, q1[:, None], q2[None, :]), "uv")
    # the v direction of DIV_V2 is even in v; this patch covers v < 0
    vals = (np.asarray(f1(c.q1)) * np.asarray(f2(np.abs(c.q2)))).astype(complex)
    return WaveField(chart_name, q1, q2, vals, float(energy), qn, spec)


def _sqrtg_grid(space: SpaceParams, chart: str, q1, q2):
    """Integration weight sampled on the grid.

    The D_III hyperbolic chart keeps the SIGNED density f dx dy (its metric
    is indefinite, and only the signed weight makes the chart Hamiltonian
    symmetric, hence eigenstates at different energies orthogonal).
    """
    if chart == "hyperbolic":
        mu = np.exp(q1)[:, None]
        nu = np.exp(q2)[None, :]
        return (space.a + 0.5 * space.b * (mu - nu)) * (mu + nu)
    w = sqrt_g(space, Chart(chart, q1[:, None], q2[None, :]))
    return np.broadcast_to(w, (len(q1), len(q2)))


def _norm_axis_support(fn, probe, compact=False, thresh=1e-9):
    """Support of |fn| above thresh * max along a probe axis."""
    if compact:
        return probe[0], probe[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.abs(np.asarray(fn(probe), dtype=complex))
    if not np.all(np.isfinite(v)):
        return None
    top = v.max()
    keep = np.where(v > thresh * top)[0]
    if keep[0] == 0 or keep[-1] == len(probe) - 1:
        return None
    pad = max(2, len(probe) // 100)
    return probe[max(keep[0] - pad, 0)], probe[min(keep[-1] + pad, len(probe) - 1)]


def _norm_grid(spec: PotentialSpec, chart: str, qn, E, n1=701, n2=501):
    """A grid covering the decayed support of the state, for norm integrals.

    Returns None when a factor fails to decay inside its chart domain.
    """
    fam = spec.family
    s0, f1, f2 = _factor_pair(spec, chart, qn, E)
    lo1, hi1 = s0.window(E, qn.n)
    two_pi = 2.0 * math.pi
    if chart == "uv" and fam.startswith("DIII"):
        probe1 = np.linspace(lo1 - 10.0, hi1 + 10.0, 4001)
        if fam == "DIII_V5":
            a2 = (np.linspace(0.0, two_pi, n2), True)
        else:
            a2 = (np.linspace(1e-3, math.pi - 1e-3, 4001), False)
    elif chart == "polar":
        probe1 = np.geomspace(1e-4, 4.0 * hi1, 4001)
        if fam == "DIII_V2":
            a2 = (np.linspace(1e-3, math.pi / 2.0 - 1e-3, 4001), False)
        else:
            a2 = (np.linspace(0.0, two_pi, n2), True)
    elif chart == "parabolic":
        if fam in ("DIII_V1", "DIII_V5"):
            probe1 = np.linspace(min(-4.0 * abs(lo1), -20.0), max(4.0 * abs(hi1), 20.0), 4001)
        else:
            probe1 = np.geomspace(1e-4, 4.0 * hi1, 4001)
        a2 = (probe1.copy(), False)
    elif chart == "horospherical":
        probe1 = np.geomspace(1e-4, 3.0 * hi1, 4001)
        a2 = (probe1.copy(), False)
    elif chart == "uv" and fam.startswith("DIV"):
        probe1 = np.linspace(1e-3, math.pi / 2.0 - 1e-3, 4001)
        if fam == "DIV_V1":
            w2 = separated_problem(spec, chart, qn.n, axis=1).window(E, qn.l)
            a2 = (np.linspace(w2[0] - 6.0, w2[1] + 6.0, 4001), False)
        else:
            a2 = (np.geomspace(1e-3, 40.0, 4001), False)
    elif chart == "degelliptic2":
        probe1 = np.geomspace(1e-3, 25.0, 4001)
        a2 = (np.linspace(1e-3, math.pi / 4.0 - 1e-3, 4001), False)
    elif chart == "hyperbolic":
        # factor decay confines the support; the sliver where the metric
        # factor changes sign carries only the decayed tails
        probe1 = np.linspace(-60.0, hi1 + 12.0, 6001)
        a2 = (np.linspace(-60.0, 12.0, 6001), False)
    else:
        raise UnsupportedChartError(chart)
    r1 = _norm_axis_support(f1, probe1)
    r2 = _norm_axis_support(f2, a2[0], compact=a2[1])
    if r1 is None or r2 is None:
        return None
    return np.linspace(r1[0], r1[1], n1), np.linspace(r2[0], r2[1], n2)


def normalize_weighted(field: WaveField, space: SpaceParams | None = None,
                       grid=None) -> WaveField:
    """Rescale so the weighted norm integral of |psi|^2 sqrt(g) is 1.

    The norm is integrated with a tensor-product Simpson rule on a grid that
    covers the state's decayed support (re-assembled independently of the
    stored samples); states whose factors do not decay inside the chart
    domain raise DivergentNormError.
    """
    from scipy.integrate import simpson

    spec = field.spec
    space = space or spec.space
    if grid is None:
        grid = _norm_grid(spec, field.chart, field.qn, field.energy)
    if grid is None:
        raise DivergentNormError(
            f"{spec.family} state at E={field.energy} does not decay inside the chart"
        )
    big = assemble_bound_state(spec, field.chart, field.qn, grid=grid, energy=field.energy)
    w = _sqrtg_grid(space, field.chart, big.q1, big.q2)
    dens = np.abs(big.values) ** 2 * w
    adens = np.abs(dens)
    peak = adens.max()
    ring = max(adens[0, :].max(), adens[-1, :].max())
    if ring > 1e-8 * peak:
        raise DivergentNormError(
            f"boundary density {ring:.3e} vs peak {peak:.3e}: norm integral does not converge"
        )
    total = float(simpson(simpson(dens, x=big.q2, axis=1), x=big.q1))
    if total <= 0:
        raise DivergentNormError("weighted norm is not positive for this state")
    c = 1.0 / math.sqrt(total)
    out = WaveField(field.chart, field.q1, field.q2, field.values * c,
                    field.energy, field.qn, field.spec, norm_constant=c,
                    meta=dict(field.meta))
    return out


def weighted_overlap(f1: WaveField, f2: WaveField) -> complex:
    """Weighted inner product of two fields on the same grid."""
    from scipy.integrate import simpson

    if f1.chart != f2.chart or f1.values.shape != f2.values.shape:
        raise GridError("overlap requires matching grids")
    w = _sqrtg_grid(f1.spec.space, f1.chart, f1.q1, f1.q2)
    dens = np.conj(f1.values) * f2.values * w
    return complex(simpson(simpson(dens, x=f1.q2, axis=1), x=f1.q1))


def _stencil_views(vals, axis):
    """The views of vals at offsets -2..2 along ``axis``, on its interior
    (margin 2)."""
    n = vals.shape[axis]
    out = []
    for k in (-2, -1, 0, 1, 2):
        s = [slice(None)] * vals.ndim
        s[axis] = slice(2 + k, n - 2 + k if k != 2 else None)
        out.append(vals[tuple(s)])
    return out


def _d1_4(vals, h, axis):
    """4th-order first derivative on the interior (margin 2) of ``axis``."""
    m2, m1, _, p1, p2 = _stencil_views(vals, axis)
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)


def _d2_4(vals, h, axis):
    """4th-order second derivative on the interior (margin 2) of ``axis``."""
    m2, m1, c0, p1, p2 = _stencil_views(vals, axis)
    return (-m2 + 16.0 * m1 - 30.0 * c0 + 16.0 * p1 - p2) / (12.0 * h * h)


def hamiltonian_residual(field: WaveField, spec: PotentialSpec | None = None) -> float:
    """max |H psi - E psi| / (max(|E|, hbar^2/2m) max|psi|) over the interior.

    H is the chart Hamiltonian: the Laplace-Beltrami form in conformal and
    polar charts (whose first-derivative term carries the quantum correction
    implicitly) and the product-ordered log-variable form in the
    D_III hyperbolic chart.
    """
    spec = spec or field.spec
    sp = spec.space
    hq = sp.hbar ** 2 / (2.0 * sp.mass)
    q1, q2 = field.q1, field.q2
    if len(q1) < 9 or len(q2) < 9:
        raise GridError("need at least 9 points per axis for 4th-order stencils")
    h1, h2 = field.spacings
    vals = field.values
    inner = (slice(2, -2), slice(2, -2))
    x1 = q1[2:-2][:, None]
    x2 = q2[2:-2][None, :]

    d11 = _d2_4(vals, h1, 0)[:, 2:-2]
    d22 = _d2_4(vals, h2, 1)[2:-2, :]

    if field.chart == "hyperbolic":
        # the grid is in the log variables (ln mu, ln nu)
        chart = Chart("hyperbolic", np.exp(x1), np.exp(x2))
    else:
        chart = Chart(field.chart, x1, x2)
    g11, _ = metric_diag(sp, chart)
    if field.chart == "hyperbolic":
        # f = g11 mu^2 = (a + b (mu - nu)/2)(mu + nu)
        kin = -hq * (d11 - d22) / (g11 * chart.q1 ** 2)
    elif field.chart == "polar":
        d1 = _d1_4(vals, h1, 0)[:, 2:-2]
        kin = -hq * (d11 + d1 / x1 + d22 / x1 ** 2) / g11
    else:
        kin = -hq * (d11 + d22) / g11
    V = potential_value(spec, chart)

    r = kin + (V - field.energy) * vals[inner]
    scale = max(abs(field.energy), hq) * np.abs(vals[inner]).max()
    return float(np.abs(r).max() / scale)
