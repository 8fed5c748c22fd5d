"""Independent numerical verification of the analytic machinery.

The eigenvalue oracle discretizes -(hbar^2/2m) d^2/dx^2 + U(x) with the
symmetric second-order three-point stencil, diagonalizes the tridiagonal
matrix, and Richardson-extrapolates over the grid pair (n, 2n - 1).  It never
reuses the closed-form eigenvalues, so agreement certifies both sides.

``separated_ode_residual`` checks that the analytic separation factor of a
potential family solves its effective 1D problem at a trial energy; the
residual has a sharp minimum exactly at the quantization roots, which is the
adjudication tool for spurious roots of squared conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamError, ResolutionError
from .potentials import PotentialSpec, separated_problem
from .spectra import QuantumNumbers
from .wavefun import _d2_4
from . import specfun as sf


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_points: int = 1024

    def __post_init__(self):
        if self.x_min >= self.x_max:
            raise ParamError("x_min must be below x_max")
        if self.n_points < 64:
            raise ParamError("need at least 64 grid points")

    def points(self, n=None):
        return np.linspace(self.x_min, self.x_max, self.n_points if n is None else n)


def _solve_once(profile, xs, n_states, hbar, mass, vectors=True):
    """The lowest eigenvalues, with their eigenvectors if ``vectors``, and the
    interior points of xs."""
    from scipy.linalg import eigh_tridiagonal

    h = xs[1] - xs[0]
    inner = xs[1:-1]
    kin = hbar * hbar / (2.0 * mass * h * h)
    diag = 2.0 * kin + np.asarray(profile(inner), dtype=float)
    off = -kin * np.ones(len(inner) - 1)
    return eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="i",
                            select_range=(0, n_states - 1)), inner


def fd_eigensolve_1d(profile, grid: Grid1D, n_states: int, hbar=1.0, mass=1.0):
    """Lowest eigenpairs of -(hbar^2/2m) d2/dx2 + U with Dirichlet walls.

    Richardson extrapolation over the nested grids (n, 2n-1, 4n-3) removes
    the h^2 and h^4 errors from the eigenvalues and the h^2 error from the
    eigenvectors (returned on the middle grid).  Disagreement of successive
    estimates beyond the extrapolation model triggers ResolutionError, as
    does a grid too coarse to resolve the local wavelength by 10 points.
    """
    n = grid.n_points
    xs1 = grid.points()
    xs2 = grid.points(2 * n - 1)
    xs3 = grid.points(4 * n - 3)
    # the coarse grid enters only through its eigenvalues
    e1, in1 = _solve_once(profile, xs1, n_states, hbar, mass, vectors=False)
    (e2, v2), in2 = _solve_once(profile, xs2, n_states, hbar, mass)
    (e3, v3), _ = _solve_once(profile, xs3, n_states, hbar, mass)
    r1 = (4.0 * e2 - e1) / 3.0
    r2 = (4.0 * e3 - e2) / 3.0
    e_rich = (16.0 * r2 - r1) / 15.0
    h = xs1[1] - xs1[0]
    u = np.asarray(profile(in1), dtype=float)
    kin_scale = np.maximum(e_rich.max() - u, 1e-12)
    lam_min = 2.0 * math.pi * hbar / math.sqrt(2.0 * mass * kin_scale.max())
    if h > lam_min / 10.0:
        raise ResolutionError(
            f"grid step {h:.3e} exceeds a tenth of the local wavelength {lam_min:.3e}"
        )
    # under clean h^2 convergence successive differences shrink by 4
    if np.any(np.abs(e2 - e3) > 0.5 * np.abs(e1 - e2) + 1e-9 * np.abs(e_rich) + 1e-12):
        raise ResolutionError("grid triple disagrees beyond the extrapolation model")
    h2 = xs2[1] - xs2[0]
    h3 = xs3[1] - xs3[0]
    out = []
    for k in range(n_states):
        a2 = v2[:, k] / math.sqrt(h2)
        a3 = v3[:, k] / math.sqrt(h3)
        a3c = a3[1::2]  # fine-grid interior points that coincide with the middle grid
        if np.dot(a3c, a2) < 0:
            a3c = -a3c
        vec = (4.0 * a3c - a2) / 3.0
        grad = np.diff(np.abs(vec))
        first_ext = int(np.argmax(grad < 0))
        if vec[first_ext] < 0:
            vec = -vec
        out.append((float(e_rich[k]), in2, vec))
    return out


@dataclass
class BuildingBlockReport:
    family: str
    n_max: int
    max_dev_eigenvalue: float
    max_dev_eigenvector: float
    details: list


def _oracle_domain(fam: sf.ModelFamily, n_max: int):
    """The interval the oracle discretizes: the whole of PT's, else where one
    of the states 0..n_max is above 1e-12 of its peak."""
    lo, _ = sf.model_domain(fam)
    if fam.tag == sf.PT:
        return (1e-9, math.pi / 2.0 - 1e-9)
    right = 40.0
    if fam.tag == sf.MORSE_BOUND:
        right = min(right, math.log(600.0 / fam.p("v0")))
    xs = np.linspace(-40.0 if lo == -math.inf else 1e-8, right, 6001)
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
    if fam.tag not in (sf.HO, sf.RHO, sf.PT, sf.MPT_BOUND, sf.MORSE_BOUND):
        raise ParamError(f"{fam.tag} has no real confining profile to verify")
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
    if the required pseudo-eigenvalue vanishes).
    """
    partner = qn.l if axis == 0 else qn.n
    own = qn.n if axis == 0 else qn.l
    sepd = separated_problem(spec, chart_name, partner, axis=axis)
    lo, hi = sepd.window(E, own)
    xs = np.linspace(lo, hi, n_points)
    h = xs[1] - xs[0]
    psi = np.asarray(sepd.factor(E, own)(xs))
    U = np.asarray(sepd.profile(E)(xs))
    lam = sepd.lam_req(E)
    hq = spec.space.hbar ** 2 / (2.0 * spec.space.mass)
    r = -hq * _d2_4(psi, h, 0) + (U[2:-2] - lam) * psi[2:-2]
    scale = max(abs(lam), hq) * np.abs(psi[2:-2]).max()
    return float(np.abs(r).max() / scale)
