"""Independent numerical verification of the analytic machinery.

The eigenvalue oracle discretizes -(hbar^2/2m) d^2/dx^2 + U(x) with the three-point
stencil on the nested grids n, 2n - 1 and 4n - 3, bisects a pilot grid of n // 4 points,
refines all three grids' pairs by inverse iteration and Richardson-extrapolates.  It
never reuses the closed-form eigenvalues, so agreement certifies both sides.  It loads
only scipy's LAPACK extension, not the slower-to-import ``scipy.linalg`` package, and
refines each level in place, in work arrays kept for all levels and the level's own row.

``separated_ode_residual`` checks that the analytic separation factor of a
potential family solves its effective 1D problem at a trial energy; the
residual has a sharp minimum exactly at the quantization roots, which is the
adjudication tool for spurious roots of squared conditions.  It alone loads the
family layers (``families``, ``potentials``, ``spectra``).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, ParamError, ResolutionError, UnsupportedChartError
from . import specfun as sf

if TYPE_CHECKING:
    from .potentials import PotentialSpec
    from .spectra import QuantumNumbers


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.x_min >= self.x_max:
            raise ParamError("x_min must be below x_max")
        if self.n_points < 64:
            raise ParamError("need at least 64 grid points")

    def points(self, n):
        return np.linspace(self.x_min, self.x_max, n)


# the bound of the Kato-Temple check, in units of the gap and ||T||_1
_EPS = float(np.finfo(float).eps)


@functools.cache
def _lapack():
    """scipy's extension linalg/_flapack, loaded by path without importing scipy;
    scipy.linalg.lapack where no such file exists."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for path in (f"{root}/linalg/_flapack{s}" for s in importlib.machinery.EXTENSION_SUFFIXES):
        if os.path.exists(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return importlib.import_module("scipy.linalg.lapack")


def _bisect(diag, off, k):
    """The lowest k pairs by the LAPACK calls of scipy's eigh_tridiagonal(select="i")."""
    lapack = _lapack()
    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if info == 0:
        v, info = lapack.dstein(diag, off, w[:m], iblock, isplit)
    if info != 0:
        raise ResolutionError(f"LAPACK bisection of {len(diag)} rows failed (info {info})")
    order = np.argsort(w[:m])
    return w[order], v[:, order]


def _eigenpairs(profile, xs, n_states, hbar, mass, coarse=None):
    """Lowest pairs on xs by LAPACK (``_lapack``): bisected, or refined from ``coarse``
    (xs, levels, vectors, next).  DomainError where the matrix is not finite."""
    h = xs[1] - xs[0]
    kin = hbar * hbar / (2.0 * mass * h * h)
    u = np.asarray(profile(xs[1:-1]), dtype=float)
    diag = 2.0 * kin + u
    if not np.isfinite(diag).all():
        raise DomainError(f"the profile is not finite on the {len(xs)}-point grid")
    if coarse is None:
        return _bisect(diag, np.full(len(u) - 1, -kin), n_states)
    cxs, ces, cvs, top = coarse
    vs = np.empty((n_states, len(u)))
    walled = np.zeros(len(cxs))  # a coarse vector between its zero walls
    # dgtsv overwrites (dl, d, du) and b: three work arrays serve every step, and
    # each level's row of vs is its iterate
    dl, d, du = np.empty(len(u) - 1), np.empty(len(u)), np.empty(len(u) - 1)
    for k, (e, v) in enumerate(zip(ces, cvs.T)):
        walled[1:-1] = v
        seed = np.interp(xs[1:-1], cxs, walled)
        x, overlap = vs[k], 0.99 * np.sqrt(seed @ seed)
        x[:] = seed
        for _ in range(2):
            dl[:] = du[:] = -kin
            np.subtract(diag, e, out=d)
            info = _lapack().dgtsv(dl, d, du, x, overwrite_dl=1, overwrite_d=1,
                                   overwrite_du=1, overwrite_b=1)[-1]
            x /= np.sqrt(x @ x)
            if info != 0 or abs(x @ seed) < overlap:
                raise ResolutionError(f"inverse iteration from the level {e:.6g} left its seed")
    # the Rayleigh sums: the (k, N) square is freed before the (k, N - 1) work array
    pot = np.square(vs) @ u
    grad = np.subtract(vs[:, 1:], vs[:, :-1])
    grad = np.sum(np.square(grad, out=grad), axis=1)
    es = kin * (grad + vs[:, 0] ** 2 + vs[:, -1] ** 2) + pot
    if np.any(es[1:] <= es[:-1]):
        raise ResolutionError("inverse iteration put the levels out of order")
    # Kato-Temple: each level lies within |(T - e) x|^2 / gap of an eigenvalue
    gaps = np.diff(np.append(es, top))
    tols = np.minimum(gaps, np.append(np.inf, gaps[:-1])) * (np.abs(diag).max() + 2.0 * kin)
    nbr = np.empty(len(u))
    for e, x, tol in zip(es, vs, tols):
        # r = (diag - e) x - kin (x_{i-1} + x_{i+1}), the walls' zeros included,
        # built in place in d and one more array
        r = np.subtract(diag, e, out=d)
        r *= x
        nbr[0] = 0.0
        nbr[1:] = x[:-1]
        nbr[:-1] += x[1:]
        nbr *= kin
        r -= nbr
        if r @ r > _EPS * tol:
            raise ResolutionError(f"inverse iteration left the level {e:.6g} unconverged")
    return es, vs.T


def fd_eigensolve_1d(profile, grid: Grid1D, n_states: int, hbar=1.0, mass=1.0):
    """Lowest eigenpairs of -(hbar^2/2m) d2/dx2 + U with Dirichlet walls.

    Bisection solves a pilot grid of n // 4 points for these levels and the next; grids n,
    2n-1 and 4n-3 each take two inverse-iteration steps from the next coarser level and its
    interpolated vector, then the non-cancelling Rayleigh quotient kin (sum (dx)^2 + x_0^2 +
    x_N^2) + sum U x^2.  Richardson extrapolation over the three removes the h^2 and h^4
    errors from the levels and the h^2 error from the vectors (returned on the middle grid).
    ResolutionError: too few pilot rows, an iterate's |cos| to its seed below 0.99, levels
    out of order, off that model or with |(T - e) x|^2 / gap > eps ||T||_1 (gaps from the
    neighbouring levels), or a step above a tenth of the local wavelength.
    """
    n = grid.n_points
    if n_states >= n // 4 - 2:
        raise ResolutionError(f"{n_states + 1} levels exceed the pilot grid's {n // 4 - 2} rows")
    xs0, xs1, xs2, xs3 = (grid.points(m) for m in (n // 4, n, 2 * n - 1, 4 * n - 3))
    # grids n and 2n - 1 are every 4th and every 2nd point of grid 4n - 3, bit for bit, so
    # the profile is evaluated once, on the finest interior, for all three
    fine = np.asarray(profile(xs3[1:-1]), dtype=float)

    def nested(x):  # the profile on the interior x of grid n, 2n - 1 or 4n - 3
        m = (len(fine) + 1) // (len(x) + 1)
        return np.ascontiguousarray(fine[m - 1::m])

    e0, v0 = _eigenpairs(profile, xs0, n_states + 1, hbar, mass)
    e1, v1 = _eigenpairs(nested, xs1, n_states, hbar, mass, (xs0, e0[:-1], v0, e0[-1]))
    e2, v2 = _eigenpairs(nested, xs2, n_states, hbar, mass, (xs1, e1, v1, e0[-1]))
    e3, v3 = _eigenpairs(nested, xs3, n_states, hbar, mass, (xs2, e2, v2, e0[-1]))
    r1 = (4.0 * e2 - e1) / 3.0
    r2 = (4.0 * e3 - e2) / 3.0
    e_rich = (16.0 * r2 - r1) / 15.0
    h = xs1[1] - xs1[0]
    kin_scale = np.maximum(e_rich.max() - nested(xs1[1:-1]), 1e-12)
    lam_min = 2.0 * math.pi * hbar / math.sqrt(2.0 * mass * kin_scale.max())
    if h > lam_min / 10.0:
        raise ResolutionError(f"grid step {h:.3e} exceeds a tenth of the local wavelength "
                              f"{lam_min:.3e}")
    # under clean h^2 convergence successive differences shrink by 4
    if np.any(np.abs(e2 - e3) > 0.5 * np.abs(e1 - e2) + 1e-9 * np.abs(e_rich) + 1e-12):
        raise ResolutionError("grid triple disagrees beyond the extrapolation model")
    out = []
    for k in range(n_states):
        a2 = v2[:, k] / math.sqrt(xs2[1] - xs2[0])
        a3c = v3[1::2, k] / math.sqrt(xs3[1] - xs3[0])  # the fine points on the middle grid
        if np.dot(a3c, a2) < 0:
            a3c = -a3c
        vec = (4.0 * a3c - a2) / 3.0
        grad = np.diff(np.abs(vec))
        first_ext = int(np.argmax(grad < 0))
        if vec[first_ext] < 0:
            vec = -vec
        out.append((float(e_rich[k]), xs2[1:-1], vec))
    return out


@dataclass
class BuildingBlockReport:
    family: str
    n_max: int
    max_dev_eigenvalue: float
    max_dev_eigenvector: float
    details: list


def _oracle_domain(fam: sf.ModelFamily, n_max: int):
    """The interval the oracle discretizes: the row's whole one, else the part
    of its scan where one of the states 0..n_max is above 1e-12 of its peak."""
    if fam.row.whole is not None:
        return fam.row.whole
    lo, _ = sf.model_domain(fam.tag)
    xs = np.linspace(*fam.row.scan(*fam.args), 6001)
    ends = []
    for n in range(n_max + 1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.abs(np.nan_to_num(np.real(sf.model_eigenfunction(fam, n, xs))))
        keep = np.where(vals > 1e-12 * vals.max())[0]
        ends += [max(keep[0] - 1, 0), min(keep[-1] + 1, len(xs) - 1)]
    lo_t, hi_t = xs[min(ends)], xs[max(ends)]
    if lo == 0.0:
        lo_t = max(lo_t * 0.5, 1e-8)
    return (lo_t, hi_t)


def verify_building_block(fam: sf.ModelFamily, n_max: int, n_points=3200) -> BuildingBlockReport:
    """Compare the FD eigensolver with the closed-form model family."""
    if fam.row.whole is None and fam.row.scan is None:
        raise ParamError(f"{fam.tag} has no real confining profile to verify")
    if fam.params.get("omega", 0.0) < 0:
        raise ParamError(f"{fam.tag} at a negative frequency holds growing partners, not states")
    top = sf.model_max_index(fam)
    if top is not None and n_max > top:
        raise ParamError(f"{fam.tag} holds only {top + 1} bound states")
    lo, hi = _oracle_domain(fam, n_max)
    grid = Grid1D(lo, hi, n_points)
    pairs = fd_eigensolve_1d(sf.model_potential(fam), grid, n_max + 1,
                             hbar=fam.hbar, mass=fam.mass)
    details = []
    dev_e = dev_v = 0.0
    for n, (e_num, xs, vec) in enumerate(pairs):
        e_ref = sf.model_eigenvalue(fam, n)
        psi = np.asarray(np.real(sf.model_eigenfunction(fam, n, xs)), dtype=float)
        h = xs[1] - xs[0]
        psi = psi / math.sqrt(np.sum(psi * psi) * h)
        if np.dot(psi, vec) < 0:
            psi = -psi
        l2 = math.sqrt(np.sum((psi - vec) ** 2) * h)
        de = abs(e_num - e_ref) / max(1.0, abs(e_ref))
        details.append({"n": n, "E_num": e_num, "E_ref": e_ref, "dE": de, "dL2": l2})
        dev_e = max(dev_e, de)
        dev_v = max(dev_v, l2)
    return BuildingBlockReport(fam.tag, n_max, dev_e, dev_v, details)


def separated_ode_residual(spec: PotentialSpec, chart_name: str, qn: QuantumNumbers,
                           E: float, axis: int = 0, n_points: int = 2001) -> float:
    """Max relative residual of the analytic separation factor in its 1D ODE.

    Builds the separated problem at energy E, inserts the factor carrying the
    axis' quantum number, and evaluates
    -(hbar^2/2m) psi'' + U_E psi - lam_req(E) psi with 4th-order central
    differences; the result is normalized by |lam_req| max|psi| (or max|psi|
    if the required pseudo-eigenvalue vanishes).  An axis other than 0 and 1,
    or a chart the family does not separate, raises UnsupportedChartError.
    """
    # here: verify_building_block loads no family layer and no wavefun
    from .families import FAMILIES
    from .potentials import _quantum_unit, separated_problem
    from .wavefun import _d2_4

    if axis not in (0, 1) or chart_name not in FAMILIES[spec.family].separations:
        raise UnsupportedChartError(
            f"{spec.family} is not separated in chart {chart_name!r} (axis {axis})")
    sepd = separated_problem(spec, chart_name, qn)[axis]
    lo, hi = sepd.window(E)
    xs = np.linspace(lo, hi, n_points)
    h = xs[1] - xs[0]
    psi = np.asarray(sepd.factor(E)(xs))
    U = np.asarray(sepd.profile(E)(xs))
    lam = sepd.lam_req(E)
    hq = _quantum_unit(spec.space)
    r = -hq * _d2_4(psi, h, 0) + (U[2:-2] - lam) * psi[2:-2]
    scale = max(abs(lam), hq) * np.abs(psi[2:-2]).max()
    return float(np.abs(r).max() / scale)
