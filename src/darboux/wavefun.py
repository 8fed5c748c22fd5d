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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentNormError,
    GridError,
    NoAdmissibleRootError,
    ParamError,
    UnsupportedChartError,
)
from .families import FAMILIES
from .geometry import Chart, SpaceParams, chart_transform, d3_factor, metric_diag, sqrt_g
from .potentials import PotentialSpec, potential_value, separated_problem
from .spectra import QuantumNumbers, solve_quantization

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

    @property
    def spacings(self):
        return (self.q1[1] - self.q1[0], self.q2[1] - self.q2[0])


def pick_energy(spec: PotentialSpec, qn: QuantumNumbers) -> float:
    """The lowest root of the quantization condition that is admissible,
    satisfies the unsquared condition and decays (a nonzero one preferred)."""
    roots = solve_quantization(spec, qn)
    good = [r for r in roots.admissible if r["admissible"] and r["satisfies_unsquared"]
            and r["decaying_wavefunction"]]
    good = [r for r in good if r["E"] != 0.0] or good
    if not good:
        raise NoAdmissibleRootError(f"{spec.family} at {qn} has no admissible root")
    return min(r["E"] for r in good)


def _factor_pair(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers, E: float):
    """Axis 0's separated problem and the two factor callables (axis 0 and
    axis 1) at energy E; an angular second axis takes the record's factor."""
    s0 = separated_problem(spec, chart_name, qn.l, axis=0)
    ang = FAMILIES[spec.family].angular_factor(spec, chart_name, qn)
    if ang is not None:
        return s0, s0.factor(E, qn.n), ang
    s1 = separated_problem(spec, chart_name, qn.n, axis=1)
    return s0, s0.factor(E, qn.n), s1.factor(E, qn.l)


def default_grid(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers, E: float,
                 shape=None):
    """A sensible rectangular grid for the assembled state (401x201 unless
    ``shape`` is given; 301x201 for a pulled-back state).  A non-finite E
    raises ParamError."""
    if not math.isfinite(E):
        raise ParamError(f"energy must be finite, got {E!r}")
    rec = FAMILIES[spec.family]
    if chart_name in rec.pullbacks:
        n1, n2 = shape or (301, 201)
        (lo1, hi1), (lo2, hi2) = rec.pullbacks[chart_name]
        return np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2)
    lo1, hi1 = separated_problem(spec, chart_name, qn.l, axis=0).window(E, qn.n)
    ang = rec.angles.get(chart_name)
    if ang is not None:
        lo2, hi2 = ang.pad, ang.length - ang.pad
    else:
        lo2, hi2 = separated_problem(spec, chart_name, qn.n, axis=1).window(E, qn.l)
    sp = spec.space
    if chart_name == "hyperbolic" and sp.b > 0:
        # keep a + b(mu - nu)/2 safely positive on the whole grid (it is a at b = 0)
        lo1 = max(lo1, math.log(0.3))
        hi2 = min(hi2, math.log(math.exp(lo1) + 1.6 * sp.a / sp.b))
    n1, n2 = shape or (401, 201)
    return np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2)


def assemble_bound_state(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers,
                         grid=None, energy: float | None = None) -> WaveField:
    """Sample the separated product state on a chart grid.

    The quantum numbers must be counted in the chart's own scheme, except
    for the DIV_V2 degelliptic2 pullback, whose count does not read it.  The
    energy defaults to the root ``pick_energy`` picks; other roots are passed
    as ``energy``.  The log variables of the
    hyperbolic chart are sampled directly, i.e. the grid is in
    (x, y) = (ln mu, ln nu) there.  A non-finite energy raises ParamError.
    """
    if energy is not None and not math.isfinite(energy):
        raise ParamError(f"energy must be finite, got {energy!r}")
    rec = FAMILIES[spec.family]
    if chart_name not in rec.schemes:
        raise UnsupportedChartError(f"{spec.family} states are not assembled in {chart_name!r}")
    if qn.scheme != chart_name and chart_name not in rec.pullbacks:
        raise ParamError(f"quantum numbers counted in scheme {qn.scheme!r} "
                         f"do not label states in chart {chart_name!r}")
    if energy is None:
        energy = pick_energy(spec, qn)
    if grid is None:
        grid = default_grid(spec, chart_name, qn, energy)
    if chart_name in rec.pullbacks:
        return _assemble_pullback(spec, chart_name, qn, grid, energy)
    q1, q2 = (np.asarray(grid[0], dtype=float), np.asarray(grid[1], dtype=float))
    s0, f1, f2 = _factor_pair(spec, chart_name, qn, energy)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.outer(np.asarray(f1(q1)), np.asarray(f2(q2))).astype(complex)
    if chart_name == "polar":
        vals *= (q1 ** -0.5)[:, None]
    if not np.all(np.isfinite(vals)):
        raise GridError("assembled state not finite on this grid")
    return WaveField(chart_name, q1, q2, vals, float(energy), qn, spec)


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
        return d3_factor(space, Chart("hyperbolic", mu, nu)) * (mu + nu)
    w = sqrt_g(space, Chart(chart, q1[:, None], q2[None, :]))
    return np.broadcast_to(w, (len(q1), len(q2)))


def _norm_axis_support(fn, probe, compact=False):
    """Support of |fn| above 1e-9 of its max along a probe axis."""
    if compact:
        return probe[0], probe[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.abs(np.asarray(fn(probe), dtype=complex))
    if not np.all(np.isfinite(v)):
        return None
    top = v.max()
    keep = np.where(v > 1e-9 * top)[0]
    if keep[0] == 0 or keep[-1] == len(probe) - 1:
        return None
    pad = max(2, len(probe) // 100)
    return probe[max(keep[0] - pad, 0)], probe[min(keep[-1] + pad, len(probe) - 1)]


def _norm_grid(spec: PotentialSpec, chart: str, qn, E, n1=701, n2=501):
    """A grid covering the decayed support of the state, for norm integrals.

    Returns None when a factor fails to decay inside its chart domain.
    """
    s0, f1, f2 = _factor_pair(spec, chart, qn, E)
    probe1, probe2, compact = FAMILIES[spec.family].norm_probes(
        spec, chart, qn, E, s0.window(E, qn.n), n2)
    r1 = _norm_axis_support(f1, probe1)
    r2 = _norm_axis_support(f2, probe2, compact=compact)
    if r1 is None or r2 is None:
        return None
    return np.linspace(r1[0], r1[1], n1), np.linspace(r2[0], r2[1], n2)


def normalize_weighted(field: WaveField) -> WaveField:
    """Rescale so the weighted norm integral of |psi|^2 sqrt(g) is 1.

    The norm is integrated with a tensor-product Simpson rule on a grid that
    covers the state's decayed support (re-assembled independently of the
    stored samples); states whose factors do not decay inside the chart
    domain raise DivergentNormError.
    """
    from scipy.integrate import simpson

    spec = field.spec
    grid = _norm_grid(spec, field.chart, field.qn, field.energy)
    if grid is None:
        raise DivergentNormError(
            f"{spec.family} state at E={field.energy} does not decay inside the chart"
        )
    big = assemble_bound_state(spec, field.chart, field.qn, grid=grid, energy=field.energy)
    w = _sqrtg_grid(spec.space, field.chart, big.q1, big.q2)
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
    return WaveField(field.chart, field.q1, field.q2, field.values * c,
                     field.energy, field.qn, field.spec, norm_constant=c)


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


def hamiltonian_residual(field: WaveField) -> float:
    """max |H psi - E psi| / (max(|E|, hbar^2/2m) max|psi|) over the interior.

    H is the chart Hamiltonian: the Laplace-Beltrami form in conformal and
    polar charts (whose first-derivative term carries the quantum correction
    implicitly) and the product-ordered log-variable form in the
    D_III hyperbolic chart.
    """
    spec = field.spec
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

    peak = np.abs(vals[inner]).max()
    if peak == 0:
        raise ParamError(f"the sampled state is 0 on the whole interior at E = {field.energy!r}")
    r = kin + (V - field.energy) * vals[inner]
    return float(np.abs(r).max() / (max(abs(field.energy), hq) * peak))
