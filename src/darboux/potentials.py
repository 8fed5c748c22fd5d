"""The superintegrable potentials on D_III and D_IV and their separations.

Five families live on D_III (V1..V5) and four on D_IV (V1..V4); each has a
record in :mod:`darboux.families`.  :func:`potential_value` evaluates a
family in the charts its record writes its closed form in and, through the
chart maps, in every real chart that reaches the first of them;
:func:`separated_problem` returns the effective 1D problems of a state's two
axes, obtained by a product ansatz in a separating chart.  This module holds
what the families share: the spec, the division of every form by the D_III
factor or by the D_IV chart's conformal factor, the separated-problem
descriptor and the D_IV index roots.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, ParamError
from .geometry import (DIII, Chart, SpaceParams, _is_grid, _map_point, conformal_factor,
                       d3_factor, validate_chart)
from . import families


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
        for k, v in self.couplings.items():  # a bool or a string is no coupling
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ParamError(f"{self.family} couplings must be finite numbers, got {k} = {v!r}")
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
    return val if _is_grid(chart.q1, chart.q2) else val[0]


def _closed_form(spec: PotentialSpec, chart: Chart):
    rec = families.FAMILIES[spec.family]
    if chart.name not in rec.forms:
        # a scalar: its value at the point's image in the chart of the form
        chart = Chart(rec.forms[0], *_map_point(spec.space, chart.name, rec.forms[0],
                                                chart.q1, chart.q2, chart.d), chart.d)
    # D_III forms divide by the D_III factor, D_IV forms by the chart's conformal factor
    if spec.space.family == DIII:
        return rec.form(spec, chart) / d3_factor(spec.space, chart)
    return rec.form(spec, chart) / conformal_factor(spec.space, chart.name, chart.q1, chart.q2)


# ----------------------------------------------------------------------
# separated 1D problems
# ----------------------------------------------------------------------

@dataclass
class Separated1D:
    """Effective 1D problem of one axis of a state at trial energy E.

    ``profile(E)`` returns the potential U_E(x); ``lam_req(E)`` the
    pseudo-eigenvalue required by the partner axis; ``factor(E)`` the analytic
    factor carrying this axis' quantum number on the open interval ``domain``;
    ``window(E)``, which builds no factor, the finite interval its factors are
    sampled on.  A root of the quantization condition is exactly an E at which
    the factor solves the problem at lam_req(E).
    """

    profile: Callable
    lam_req: Callable
    factor: Callable
    window: Callable
    domain: tuple


def index_square(space: SpaceParams, k2, apm, E):
    """The square k2 - 2 m a_pm E / hbar^2 of a D_IV index root; E may be an
    array of energies."""
    return k2 - 2.0 * space.mass * apm * E / space.hbar ** 2


# the names of the DIV_V3 index roots, in the order of div3_squares
_DIV3_INDICES = ("1m", "2p", "3p", "3m")


def div3_squares(spec: PotentialSpec) -> tuple:
    """The four DIV_V3 index squares as the (k2, a_pm) of :func:`index_square`:
    1m, 3m (a_minus, 1/4 + c_i) and 2p, 3p (a_plus, 1/4 - c_i)."""
    sp, c3 = spec.space, spec.c("c3")
    ap, am = sp.a_plus, sp.a_minus
    return (0.25 + spec.c("c1"), am), (0.25 - spec.c("c2"), ap), (0.25 - c3, ap), (0.25 + c3, am)


def div3_indices(spec: PotentialSpec, E):
    """The four index roots of DIV_V3 that its separations read, by the names
    1m, 2p, 3p and 3m of :func:`div3_squares`.

    E may be an array of energies; each index then has its shape.  Indices
    whose square goes negative come back as NaN.
    """
    sp = spec.space
    # unpacked, not looped: a comprehension costs a tenth of a gap evaluation
    (k1, a1), (k2, a2), (k3, a3), (k4, a4) = div3_squares(spec)
    sq = np.array([index_square(sp, k1, a1, E), index_square(sp, k2, a2, E),
                   index_square(sp, k3, a3, E), index_square(sp, k4, a4, E)])
    sq[sq < 0] = np.nan  # a complex index is NaN, with no warning from np.sqrt
    # np.sqrt is correctly rounded like math.sqrt
    return dict(zip(_DIV3_INDICES, np.sqrt(sq)))


def separated_problem(spec: PotentialSpec, chart_name: str, qn) -> tuple:
    """The separated 1D problems (axis 0, axis 1) of the state ``qn`` of
    ``spec`` in the named chart: axis 0 carries n and axis 1 carries l.  A
    chart that separates nothing raises UnsupportedChartError.
    """
    return families.FAMILIES[spec.family].separation(spec, chart_name, qn)
