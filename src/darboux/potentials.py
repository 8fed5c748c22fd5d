"""The superintegrable potentials on D_III and D_IV and their separations.

Five families live on D_III (V1..V5) and four on D_IV (V1..V4); each has a
record in :mod:`darboux.families`.  :func:`potential_value` evaluates a
family in every chart for which its record has a closed form, and
:func:`separated_problem` returns the effective 1D problem obtained by a
product ansatz in a separating chart.  This module holds what the families
share: the spec, the division of every form by the D_III factor or by the
D_IV chart's conformal factor, the separated-problem descriptor, the
analytic factors the separations are built from and the D_IV index roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, ParamError
from .geometry import (DIII, Chart, SpaceParams, chart_transform, conformal_factor,
                       d3_factor, elliptic_cartesian, validate_chart)
from . import families, specfun as sf


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family on one of the two spaces plus its couplings."""

    space: SpaceParams
    family: str
    couplings: dict = field(default_factory=dict)

    def __post_init__(self):
        rec = families.FAMILIES.get(self.family)
        if rec is None:
            raise ParamError(f"unknown potential family {self.family!r}")
        if self.space.family != rec.space:
            raise ParamError(f"{self.family} lives on {rec.space}")
        extra = set(self.couplings) - set(rec.couplings)
        if extra:
            raise ParamError(f"{self.family} does not take couplings {sorted(extra)}")
        if not all(math.isfinite(self.c(k)) for k in self.couplings):
            raise ParamError(f"{self.family} couplings must be finite")
        for k in rec.nonzero:
            if self.c(k) == 0.0:
                raise ParamError(f"{self.family} requires {k} != 0")

    def c(self, name: str) -> float:
        """Coupling value; unset couplings default to 0."""
        return float(self.couplings.get(name, 0.0))


def _quantum_unit(space: SpaceParams) -> float:
    return space.hbar ** 2 / (2.0 * space.mass)


# ----------------------------------------------------------------------
# potential values
# ----------------------------------------------------------------------

def potential_value(spec: PotentialSpec, chart: Chart):
    """Potential at the chart point(s) (complex for DIII_V3).

    A point where the potential is singular raises DomainError.
    """
    validate_chart(spec.space, chart)
    # float arrays turn a division by zero into inf rather than ZeroDivisionError,
    # and give a single point the arithmetic of a grid (x**2 is x*x, not pow)
    pts = replace(chart, q1=np.atleast_1d(np.asarray(chart.q1, dtype=float)),
                  q2=np.atleast_1d(np.asarray(chart.q2, dtype=float)))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _closed_form(spec, pts)
    if not np.isfinite(val).all():
        raise DomainError(f"{spec.family} is singular at a point of chart {chart.name!r}")
    return val if np.ndim(chart.q1) or np.ndim(chart.q2) else val[0]


def _closed_form(spec: PotentialSpec, chart: Chart):
    rec = families.FAMILIES[spec.family]
    if chart.name in rec.pullbacks:
        # evaluated through the chart map so the value is a chart scalar
        return _closed_form(spec, chart_transform(spec.space, chart, "uv"))
    # every D_III form divides by the D_III factor, every D_IV form by the
    # chart's conformal factor; the D_IV elliptic forms are written in the
    # horospherical (mu, nu) of the point
    if spec.space.family == DIII:
        return rec.form(spec, chart) / d3_factor(spec.space, chart)
    if chart.name != "elliptic":
        return rec.form(spec, chart) / conformal_factor(spec.space, chart.name, chart.q1, chart.q2)
    mu, nu = elliptic_cartesian(chart)
    f = conformal_factor(spec.space, "horospherical", mu, nu)
    return rec.form(spec, replace(chart, q1=mu, q2=nu)) / f


# ----------------------------------------------------------------------
# separated 1D problems
# ----------------------------------------------------------------------

@dataclass
class Separated1D:
    """Effective 1D problem for one separation variable at trial energy E.

    ``profile(E)`` returns the potential U_E(x); ``lam_req(E)`` the
    pseudo-eigenvalue required by the partner separation; ``factor(E, n)`` the
    analytic factor carrying this problem's quantum number n; ``window(E, n)``
    the finite interval on which that factor is sampled.  A root of the
    quantization condition is exactly an E at which the factor solves the
    problem at pseudo-eigenvalue lam_req(E).
    """

    profile: Callable
    lam_req: Callable
    factor: Callable
    window: Callable


def morse_flipped_factor(beta, mu, n, sign=-1.0):
    """Exponential-profile solution at pseudo-level -(hbar^2/2m) mu^2.

    Returns psi(x) = w^mu e^{w/2} L_n^{2 mu}(-w) with w = beta e^{sign x};
    it solves -(hb^2/2m) psi'' + [(hb^2 beta^2/8m) e^{2 sign x}
    + (hb^2 beta (n + mu + 1/2)/2m) e^{sign x}] psi = -(hb^2/2m) mu^2 psi.
    """

    def psi(x):
        w = beta * np.exp(sign * np.asarray(x, dtype=float))
        return w ** mu * np.exp(0.5 * w) * sf.orthopoly_eval("laguerre", n, (2.0 * mu,), -w)

    return psi


def morse_bound_factor(v0, s, n):
    """Morse-type solution z^s e^{-z/2} L_n^{2s}(z), z = 2 v0 e^x.

    Solves -(hb^2/2m) psi'' + (hb^2 v0^2/2m)(e^{2x} - 2 at e^x) psi
    = -(hb^2/2m) s^2 psi with at v0 = s + n + 1/2; s may be negative
    (formal, growing branch).
    """

    def psi(x):
        z = 2.0 * v0 * np.exp(np.asarray(x, dtype=float))
        return z ** s * np.exp(-0.5 * z) * sf.orthopoly_eval("laguerre", n, (2.0 * s,), z)

    return psi


def index_square(space: SpaceParams, k2, apm, E):
    """The square k2 - 2 m a_pm E / hbar^2 of a D_IV index root; E may be an
    array of energies."""
    return k2 - 2.0 * space.mass * apm * E / space.hbar ** 2


def div3_indices(spec: PotentialSpec, E):
    """The index roots of DIV_V3 (a_plus carries -c_i, a_minus +c_i).

    E may be an array of energies; each index then has its shape.  Indices
    whose square goes negative come back as NaN.
    """
    sp = spec.space
    signs = ((-1.0, sp.a_plus), (1.0, sp.a_minus))
    # np.sqrt is correctly rounded like math.sqrt, and NaN below 0
    with np.errstate(invalid="ignore"):
        roots = [np.sqrt(index_square(sp, 0.25 + s * spec.c(c), apm, E))
                 for c in ("c1", "c2", "c3") for s, apm in signs]
    return dict(zip(("1p", "1m", "2p", "2m", "3p", "3m"), roots))


def separated_problem(spec: PotentialSpec, chart_name: str, partner, axis: int = 0) -> Separated1D:
    """The separated 1D problem of ``spec`` in the named chart.

    ``partner`` is the partner factor's quantum number; ``axis`` selects which
    of the two separation variables the descriptor describes (0 = the one the
    closed-form solution integrates last, 1 = its partner).  ``factor(E, n)``
    returns the analytic factor with this variable's quantum number n.
    """
    return families.FAMILIES[spec.family].separation(spec, chart_name, partner, axis)
