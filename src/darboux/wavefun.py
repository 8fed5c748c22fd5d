"""Assembly of 2D bound states, weighted normalization, and PDE residuals.

A bound state is a product of two separation factors sampled on a chart
grid, with the measure prefactor the chart's reduction requires (1/sqrt(rho)
in the D_III polar chart, none in conformal charts, none in the hyperbolic
log variables).  ``hamiltonian_residual`` discretizes the chart Hamiltonian
with 4th-order central stencils and is the single gate that validates the
factors, the quantization roots, and the metric code together.
``normalize_weighted`` needs no grid: the chart's area density is a sum of one
term per axis, so the norm is four 1D sums over the factors' natural intervals.

Negative-energy D_III states are exact solutions of the separated equations
but generically grow toward one chart boundary (the quantization there
reflects non-standard boundary conditions); the decay flag and the
DivergentNormError of ``normalize_weighted`` report this rather than hide it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DivergentNormError,
    DomainError,
    GridError,
    NoAdmissibleRootError,
    ParamError,
    ResolutionError,
    UnsupportedChartError,
)
from .families import FAMILIES
from .geometry import CHARTS, DIII, Chart, SpaceParams, chart_transform, metric_diag, sqrt_g
from .potentials import PotentialSpec, _quantum_unit, potential_value, separated_problem
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


@contextmanager
def _at(spec: PotentialSpec, chart_name: str, E: float):
    """Raise a ValueError or ZeroDivisionError of the block, from a square
    root, log or quotient at E, as DomainError."""
    try:
        yield
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{spec.family} has no {chart_name} factor at E = {E!r}") from None


def _factor_pair(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers, E: float):
    """The factors of axis 0 and axis 1 at energy E as (callable, natural
    interval, window)."""
    axes = separated_problem(spec, chart_name, qn)
    with _at(spec, chart_name, E):
        return [(s.factor(E), s.domain, s.window(E)) for s in axes]


def default_grid(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers, E: float,
                 shape=None):
    """A sensible rectangular grid for the assembled state (401x201 unless
    ``shape`` is given; 301x201 for a pulled-back state), read off the windows.
    A non-finite E raises ParamError, and qn that ``Family.check`` refuses in
    the chart its error; a window not finite and increasing, or one too narrow
    for its nodes to increase in double precision, GridError."""
    if not math.isfinite(E):
        raise ParamError(f"energy must be finite, got {E!r}")
    rec = FAMILIES[spec.family]
    rec.check(qn, chart_name)
    if chart_name in rec.pullbacks:
        n1, n2 = shape or (301, 201)
        (lo1, hi1), (lo2, hi2) = rec.pullbacks[chart_name]
        return np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2)
    axes = separated_problem(spec, chart_name, qn)
    with _at(spec, chart_name, E):
        (lo1, hi1), (lo2, hi2) = (s.window(E) for s in axes)
    sp = spec.space
    if chart_name == "hyperbolic" and sp.b > 0:
        # keep a + b(mu - nu)/2 safely positive on the whole grid (it is a at b = 0)
        lo1 = max(lo1, math.log(0.3))
        hi2 = min(hi2, math.log(math.exp(lo1) + 1.6 * sp.a / sp.b))
    if not (all(map(math.isfinite, (lo1, hi1, lo2, hi2))) and lo1 < hi1 and lo2 < hi2):
        raise GridError(f"the sampling window {(lo1, hi1)} x {(lo2, hi2)} is not finite "
                        "and increasing")
    n1, n2 = shape or (401, 201)
    q1, q2 = np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2)
    if not ((np.diff(q1) > 0).all() and (np.diff(q2) > 0).all()):
        raise GridError(f"the window {(lo1, hi1)} x {(lo2, hi2)} is too narrow for {n1}x{n2} nodes")
    return q1, q2


def assemble_bound_state(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers,
                         grid=None, energy: float | None = None) -> WaveField:
    """Sample the separated product state on a chart grid.

    The quantum numbers must label states in the chart (``Family.check``).  The
    energy defaults to the root ``pick_energy`` picks; other roots are passed
    as ``energy``.  The log variables of the hyperbolic chart are sampled
    directly, i.e. the grid is in (x, y) = (ln mu, ln nu) there.  A non-finite
    energy raises ParamError, and qn that ``Family.check`` refuses in the chart
    its error.
    """
    if energy is not None and not math.isfinite(energy):
        raise ParamError(f"energy must be finite, got {energy!r}")
    rec = FAMILIES[spec.family]
    if chart_name not in rec.schemes:
        raise UnsupportedChartError(f"{spec.family} states are not assembled in {chart_name!r}")
    rec.check(qn, chart_name)
    if energy is None:
        energy = pick_energy(spec, qn)
    if grid is None:
        grid = default_grid(spec, chart_name, qn, energy)
    q1, q2 = (np.asarray(grid[0], dtype=float), np.asarray(grid[1], dtype=float))
    if chart_name in rec.pullbacks:
        return _assemble_pullback(spec, chart_name, qn, q1, q2, energy)
    (f1, _, _), (f2, _, _) = _factor_pair(spec, chart_name, qn, energy)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.outer(np.asarray(f1(q1)), np.asarray(f2(q2))).astype(complex)
    if chart_name == "polar":
        vals *= (q1 ** -0.5)[:, None]
    if not np.all(np.isfinite(vals)):
        raise GridError("assembled state not finite on this grid")
    return WaveField(chart_name, q1, q2, vals, float(energy), qn, spec)


def _assemble_pullback(spec, chart_name, qn, q1, q2, energy):
    """Assemble in a chart by pulling the (u, v) state back through the map."""
    (f1, _, _), (f2, _, _) = _factor_pair(spec, "uv", qn, energy)
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
        return CHARTS[DIII][chart].factor(space, np.exp(q1)[:, None], np.exp(q2)[None, :], 1.0)
    w = sqrt_g(space, Chart(chart, q1[:, None], q2[None, :]))
    return np.broadcast_to(w, (len(q1), len(q2)))


# norm sums: step in t; bounds on an end term and on doubling the step, over the sum of |terms|
_STEP, _END_TOL, _SETTLE_TOL = 1.0 / 64.0, 1e-10, 1e-9


def _rule(domain, window, reach):
    """Nodes x and weights h dx/dt of the trapezoid rule in t on [-reach, reach]
    mapped onto the open interval ``domain``: tanh-sinh between two walls,
    x = lo + s exp(t - e^-t) from a wall to infinity, x = c + s sinh t on the
    whole line; c and s come from ``window``."""
    t = _STEP * np.arange(-round(reach / _STEP), round(reach / _STEP) + 1)
    (lo, hi), (wlo, whi) = domain, window
    if math.isfinite(hi):
        y = 0.5 * math.pi * np.sinh(t)
        dx = 0.25 * math.pi * (hi - lo) * np.cosh(t) / np.cosh(y) ** 2
        return lo + (hi - lo) / (1.0 + np.exp(-2.0 * y)), _STEP * dx
    if math.isfinite(lo):
        d = (whi - lo) * np.exp(t - np.exp(-t))
        return lo + d, _STEP * d * (1.0 + np.exp(-t))
    s = 0.5 * (whi - wlo)
    return wlo + s + s * np.sinh(t), _STEP * s * np.cosh(t)


def _axis_sums(fn, domain, window, weight):
    """The integrals of |fn|^2 weight and of |fn|^2 over the interval ``domain``,
    the reach in t growing from 2 to 4 until both end terms are below _END_TOL.
    A non-finite factor, or one not vanishing at an infinite end, raises
    DivergentNormError; slow decay at a wall (for double-precision nodes), or
    sums moving by over _SETTLE_TOL as the step doubles, raise ResolutionError."""
    for reach in (2.0, 2.5, 3.0, 3.5, 4.0):
        x, dx = _rule(domain, window, reach)
        keep = (x > domain[0]) & (x < domain[1])  # nodes rounded onto a wall are dropped
        even, x, dx = (np.arange(len(x)) % 2 == 0)[keep], x[keep], dx[keep]
        with np.errstate(over="ignore", invalid="ignore"):
            dens = np.abs(np.asarray(fn(x), dtype=complex)) ** 2 * dx
            g = np.array([dens * weight(x), dens])
        if not np.all(np.isfinite(g)):
            raise DivergentNormError(f"a factor is not finite on its interval {domain}")
        scale = np.abs(g).sum(axis=1)
        ends = [np.any(np.abs(g[:, i]) > _END_TOL * scale) for i in (0, -1)]
        if not any(ends):
            break
    else:
        end = domain[ends.index(True)]
        raise (DivergentNormError if math.isinf(end) else ResolutionError)(
            f"a factor does not vanish fast enough toward {end} for the norm sum")
    fine, coarse = g.sum(axis=1), 2.0 * g[:, even].sum(axis=1)
    if np.any(np.abs(fine - coarse) > _SETTLE_TOL * scale):
        raise ResolutionError(f"the norm sums on {domain} do not settle: {fine} vs {coarse}")
    return fine


def normalize_weighted(field: WaveField) -> WaveField:
    """Rescale so the weighted norm integral of |psi|^2 sqrt(g) is 1.

    The area density splits as w(q1, q2) = f1(q1) + f2(q2), f1 = w(q1, c2),
    f2 = w(c1, q2) - w(c1, c2), c_i the centre of factor i's window; so the
    norm is A1 B2 + B1 A2, A_i and B_i the integrals of |psi_i|^2 f_i and of
    |psi_i|^2 over factor i's natural interval.  The samples of ``field`` are
    not read; a pulled-back DIV_V2 state takes the norm of its (u, v) product.
    A norm that is not positive raises DivergentNormError."""
    spec = field.spec
    chart = "uv" if field.chart in FAMILIES[spec.family].pullbacks else field.chart
    (f1, dom1, win1), (f2, dom2, win2) = _factor_pair(spec, chart, field.qn, field.energy)
    c1, c2 = np.array([0.5 * sum(win1)]), np.array([0.5 * sum(win2)])
    if chart == "polar":  # the assembled state carries 1/sqrt(rho)
        f1 = (lambda radial: lambda r: radial(r) * r ** -0.5)(f1)
    w0 = _sqrtg_grid(spec.space, chart, c1, c2)[0, 0]
    a1, b1 = _axis_sums(f1, dom1, win1, lambda x: _sqrtg_grid(spec.space, chart, x, c2)[:, 0])
    a2, b2 = _axis_sums(f2, dom2, win2, lambda y: _sqrtg_grid(spec.space, chart, c1, y)[0] - w0)
    total = a1 * b2 + b1 * a2
    if not total > 0:
        raise DivergentNormError(f"weighted norm {float(total)!r} is not positive for this state")
    c = 1.0 / math.sqrt(total)
    return replace(field, values=field.values * c, norm_constant=c)


def _d1_4(vals, h, axis):
    """4th-order first derivative on the interior (margin 2) of ``axis``."""
    v = np.moveaxis(vals, axis, 0)
    d = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    return np.moveaxis(d, 0, axis)


def _d2_4(vals, h, axis):
    """4th-order second derivative on the interior (margin 2) of ``axis``."""
    v = np.moveaxis(vals, axis, 0)
    d = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (12.0 * h * h)
    return np.moveaxis(d, 0, axis)


def hamiltonian_residual(field: WaveField) -> float:
    """max |H psi - E psi| / (max(|E|, hbar^2/2m) max|psi|) over the interior.

    H is the chart Hamiltonian: the Laplace-Beltrami form in conformal and
    polar charts (whose first-derivative term carries the quantum correction
    implicitly) and the product-ordered log-variable form in the
    D_III hyperbolic chart.
    """
    spec = field.spec
    sp = spec.space
    hq = _quantum_unit(sp)
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
