"""Classical layer: constants of motion, Poisson algebra, Hamiltonian flow.

The extra constants of motion are quadratic forms in the momenta with
chart-dependent coefficient functions.  On D_III, with g(u) = e^{2u}/(b+ae^u)
(so the free Hamiltonian is H = g (p_u^2+p_v^2)/2m),

    X1 = al [ g cos v p_u^2 - (e^u (2b+ae^u)/(a(b+ae^u))) cos v p_v^2 ]
         + (2 al/a) e^u sin v p_u p_v ,        al = a^2/(4b),
    X2 = dX1/dv,   K = p_v,

which closes the algebra X1^2 + X2^2 - H0~^2 - H0~ K^2 = 0 with the
normalized Hamiltonian H0~ = al g (p_u^2 + p_v^2).  On D_IV, with
G(u) = sin^2 2u/(2b cos 2u + a),

    X1 = e^{-2v} (G p_u^2 + D p_v^2 + C p_u p_v),
    X2 = e^{+2v} (G p_u^2 + D p_v^2 - C p_u p_v),
    D  = 3 G G'^2 / (2 G G'' - G'^2 + 16 G^2),   C = -4 G D / G',

and the algebra closes as b^2 X1 X2 - K^4 - a K^2 H0~ - b^2 H0~^2 = 0 with
H0~ = -G (p_u^2 + p_v^2).  These coefficient functions are the general-(a,b)
resolutions of the usual a = b = 1 normal forms; the conservation and
algebra tests are the adjudicators.  The observables, like the Hamiltonian,
take arrays of states: a Poisson bracket evaluates each of its two once.
Only a potential or a residual constant loads the family layers
(``families``, ``potentials``, ``specfun``); free motion runs on the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dop853 import dop853
from .errors import BlowupError, DomainError, ParamError
from .geometry import DIII, Chart, SpaceParams, chart_transform, metric_diag

if TYPE_CHECKING:
    from .potentials import PotentialSpec


@dataclass(frozen=True)
class PhaseState:
    """A chart point plus its conjugate momenta.

    The point and the momenta may be arrays that broadcast together, one
    state per entry (see :func:`hamiltonian_value`).  Such a state iterates
    over its first axis: a trajectory of :func:`hamiltonian_flow` gives its
    single states in order, each with ``np.float64`` fields.  A single state
    is not iterable (TypeError).
    """

    chart: Chart
    p1: float
    p2: float

    def __iter__(self):
        c = self.chart
        if not _holds_arrays(self):
            raise TypeError("a single PhaseState is not iterable")
        cols = np.broadcast_arrays(c.q1, c.q2, self.p1, self.p2)
        return (PhaseState(Chart(c.name, q1, q2, c.d), p1, p2) for q1, q2, p1, p2 in zip(*cols))


def _holds_arrays(state: PhaseState) -> bool:
    return any(np.ndim(x) for x in (state.chart.q1, state.chart.q2, state.p1, state.p2))


def _require_single(state: PhaseState, what: str) -> None:
    if _holds_arrays(state):
        raise ParamError(f"{what} takes a single state, not an array of states")


OBSERVABLES = ("H0", "X1", "X2", "K")
# the coordinate types the observables' formulas take as they are
_AS_GIVEN = (float, np.ndarray)
# central differences over (q1, q2, p1, p2): column 2i shifts by +e_i, column 2i + 1
# by -e_i (adding 0 * h leaves the other coordinates exactly as they are)
_SIGNS = np.kron(np.eye(4), [1.0, -1.0])
# a Poisson bracket's two Richardson steps h_k, and its shifts: _SIGNS times each
_STEPS = np.array([1e-5, 1e-5 / 2.0])
_BRACKET_SHIFTS = np.kron(_STEPS, _SIGNS)
# Hamilton's equations from the central differences over (q1, q2, p1, p2): the
# derivatives in the order (p1, p2, q1, q2), those in q negated through the
# sign of their denominators 2h (a quotient's sign is exact)
_HAMILTON_ORDER = np.array([2, 3, 0, 1])
_HAMILTON_TWO = np.array([-2.0, -2.0, 2.0, 2.0])


def _d3_coeffs(space: SpaceParams, u):
    a, b = space.a, space.b
    s = np.exp(u)
    g = s * s / (b + a * s)
    al = a * a / (4.0 * b)
    A = al * g
    B = -al * s * (2.0 * b + a * s) / (a * (b + a * s))
    C = 2.0 * al * s / a
    return g, al, A, B, C


def _d4_G(space: SpaceParams, u):
    a, b = space.a, space.b
    s, c = np.sin(2.0 * u), np.cos(2.0 * u)
    d = 2.0 * b * c + a
    s2 = s * s  # products, not powers: a numpy scalar's power need not be an array's
    G = s2 / d
    Gp = 4.0 * s * (c * d + b * s * s) / (d * d)
    Gpp = 8.0 * (d * d * (c * c - s2) + 5.0 * b * c * s2 * d + 4.0 * b * b * s2 * s2) / (d * d * d)
    return G, Gp, Gpp


def _d4_coeffs(space: SpaceParams, u):
    G, Gp, Gpp = _d4_G(space, u)
    D = 3.0 * G * Gp * Gp / (2.0 * G * Gpp - Gp * Gp + 16.0 * G * G)
    C = -4.0 * G * D / Gp
    return G, D, C


def observable_value(space: SpaceParams, obs: str, state: PhaseState) -> float | np.ndarray:
    """Value of a constant of motion (or the algebra-normalized Hamiltonian).

    In the (u, v) chart the point and the momenta may be arrays of states,
    which give an array of values.  A single state gives a scalar (a numpy
    scalar, not a one-element array), bitwise equal to its entry in an array;
    one given in another chart is transformed to (u, v) first, with the
    momenta carried as covectors.
    """
    if obs not in OBSERVABLES:
        raise ParamError(f"unknown observable {obs!r}")
    if state.chart.name != "uv":
        state = transform_state(space, state, "uv")
    u, v, pu, pv = state.chart.q1, state.chart.q2, state.p1, state.p2
    if not (isinstance(u, _AS_GIVEN) and isinstance(v, _AS_GIVEN)
            and isinstance(pu, _AS_GIVEN) and isinstance(pv, _AS_GIVEN)):
        # lists compute as float arrays, other scalars as np.float64 ([()] unwraps 0-d)
        u, v, pu, pv = (np.asarray(x, dtype=float)[()] for x in (u, v, pu, pv))
    if obs == "K":
        return pv
    if space.b == 0:
        raise ParamError("the constants of motion are normalized by b, which is 0 here")
    if space.family == DIII:
        g, al, A, B, C = _d3_coeffs(space, u)
        if obs == "H0":
            return al * g * (pu * pu + pv * pv)
        if obs == "X1":
            return np.cos(v) * (A * pu * pu + B * pv * pv) + np.sin(v) * C * pu * pv
        return -np.sin(v) * (A * pu * pu + B * pv * pv) + np.cos(v) * C * pu * pv
    G, D, C = _d4_coeffs(space, u)
    if obs == "H0":
        return -G * (pu * pu + pv * pv)
    if obs == "X1":
        return np.exp(-2.0 * v) * (G * pu * pu + D * pv * pv + C * pu * pv)
    return np.exp(2.0 * v) * (G * pu * pu + D * pv * pv - C * pu * pv)


def hamiltonian_value(space: SpaceParams, spec: PotentialSpec | None,
                      state: PhaseState) -> float | np.ndarray:
    """The physical Hamiltonian (kinetic + potential) at the state(s).

    The chart point and the momenta may be arrays of states, which give an
    array of values.  A single state is evaluated as a one-element array and
    returns a float, bitwise equal to its entry in an array.
    """
    xs = (state.chart.q1, state.chart.q2, state.p1, state.p2)
    single = not _holds_arrays(state)
    # as a one-element array a single state gets the arithmetic of an array
    # (x**2 is x*x, not pow)
    q1, q2, p1, p2 = (np.array(xs, dtype=float)[:, None] if single
                      else (np.asarray(x, dtype=float) for x in xs))
    chart = Chart(state.chart.name, q1, q2, state.chart.d)
    val = _hamiltonian(space, _potential(spec), chart, p1, p2)
    return float(val[0]) if single else val


def _potential(spec):
    """The potential as a function of chart points; None for free motion, which
    loads none of the potential layers."""
    if spec is None:
        return None
    from .potentials import potential_value

    return lambda chart: potential_value(spec, chart)


def _hamiltonian(space, potential, chart, p1, p2):
    """Kinetic + potential energy at the chart point(s) and the momenta (arrays)."""
    g11, g22 = metric_diag(space, chart)
    val = (p1 ** 2 / g11 + p2 ** 2 / g22) / (2.0 * space.mass)
    if potential is not None:
        val = val + np.real(potential(chart))
    return val


def transform_state(space: SpaceParams, state: PhaseState, to_name: str) -> PhaseState:
    """Transform a phase-space state to another chart (momenta as covectors).

    The point and the momenta may be arrays of states, like those of
    :func:`observable_value`; each entry is bitwise what the single state
    gives, which comes back with float momenta.
    """
    if state.chart.name == to_name:
        return state
    new_chart = chart_transform(space, state.chart, to_name)

    # p'_j = sum_i p_i dq_i/dq'_j evaluated by central differences of the map
    def fwd(q1, q2):
        c = chart_transform(space, Chart(new_chart.name, q1, q2, new_chart.d), state.chart.name)
        return np.stack(np.broadcast_arrays(c.q1, c.q2))

    h1 = 1e-7 * (1.0 + abs(new_chart.q1))
    h2 = 1e-7 * (1.0 + abs(new_chart.q2))
    d1 = (fwd(new_chart.q1 + h1, new_chart.q2) - fwd(new_chart.q1 - h1, new_chart.q2)) / (2 * h1)
    d2 = (fwd(new_chart.q1, new_chart.q2 + h2) - fwd(new_chart.q1, new_chart.q2 - h2)) / (2 * h2)
    p = np.stack(np.broadcast_arrays(state.p1, state.p2), axis=-1)[..., None, :]
    # each state's p . d as a (1, 2) @ (2, 1) product: the dot of a single
    # state, whose rounding an elementwise sum of the two products does not share
    p1, p2 = (np.matmul(p, np.moveaxis(d, 0, -1)[..., None])[..., 0, 0] for d in (d1, d2))
    if p1.ndim == 0:
        return PhaseState(new_chart, float(p1), float(p2))
    return PhaseState(new_chart, p1, p2)


def poisson_bracket_fd(space: SpaceParams, obs_a, obs_b, state: PhaseState) -> float:
    """Canonical Poisson bracket {A, B} by central differences.

    ``obs_a``/``obs_b`` are observable names or callables of a PhaseState
    that holds arrays; one Richardson extrapolation over the steps 1e-5 and
    5e-6 removes the h^2 error.  Each observable is evaluated once, as an
    array over the 16 shifted states: +-h along q1, q2, p1 and p2 at both steps.
    The state must be a single one (ParamError otherwise).
    """
    _require_single(state, "a Poisson bracket")
    if state.chart.name != "uv":
        state = transform_state(space, state, "uv")
    y = np.array([state.chart.q1, state.chart.q2, state.p1, state.p2])
    q1, q2, p1, p2 = y[:, None] + _BRACKET_SHIFTS
    shifted = PhaseState(Chart("uv", q1, q2), p1, p2)

    def diffs(o):  # the central differences [step k, along q1, q2, p1, p2]
        f = (o(shifted) if callable(o) else observable_value(space, o, shifted)).reshape(2, 4, 2)
        return (f[..., 0] - f[..., 1]) / (2 * _STEPS[:, None])

    da, db = diffs(obs_a), diffs(obs_b)
    b1, b2 = (da[:, :2] * db[:, 2:] - da[:, 2:] * db[:, :2]).sum(axis=1)
    return float((4.0 * b2 - b1) / 3.0)


def algebra_check(space: SpaceParams, state: PhaseState) -> dict:
    """Pointwise residuals of the quadratic algebra and the Poisson relations
    at a single state (ParamError for an array of states)."""
    _require_single(state, "an algebra check")
    H0, X1, X2, K = (float(observable_value(space, o, state)) for o in OBSERVABLES)
    out = {}
    scale = max(H0 * H0, abs(X1 * X2), K ** 4, 1e-12)
    if space.family == DIII:
        out["functional"] = (X1 * X1 + X2 * X2 - H0 * H0 - H0 * K * K) / scale
        out["bracket_KX1_plus_X2"] = poisson_bracket_fd(space, "K", "X1", state) + X2
        out["bracket_KX2_minus_X1"] = poisson_bracket_fd(space, "K", "X2", state) - X1
        out["bracket_X1X2_minus_KH0"] = poisson_bracket_fd(space, "X1", "X2", state) - K * H0
    else:
        b2 = space.b ** 2
        out["functional"] = (X1 * X2 - (K ** 4 + space.a * K * K * H0) / b2 - H0 * H0) / scale
        out["bracket_KX1_minus_2X1"] = poisson_bracket_fd(space, "K", "X1", state) - 2.0 * X1
        out["bracket_KX2_plus_2X2"] = poisson_bracket_fd(space, "K", "X2", state) + 2.0 * X2
        # resolved closure of the mixed bracket under this normalization
        out["bracket_X1X2_minus_rel"] = poisson_bracket_fd(space, "X1", "X2", state) + (
            8.0 / space.b ** 2
        ) * (K ** 3 + 0.5 * space.a * K * H0)
    return out


# Below 100 machine epsilons a relative tolerance asks for less error than a
# step's rounding leaves, so DOP853 cannot honour it (scipy's solve_ivp raises
# such an rtol to this floor with only a warning); it is refused instead
TOL_FLOOR = 100 * np.finfo(float).eps
# right-hand-side calls per unit of t_final (1 at least); a t = 10 flow makes a few hundred
RHS_CALLS_PER_TIME = 10_000
# right-hand-side calls in all, whatever t_final: about 17 s of a stiff flow at 85 us a call
MAX_RHS_CALLS = 200_000
# output samples at most: each becomes a CLI record of ten numbers
MAX_SAMPLES = 100_000


def hamiltonian_flow(space: SpaceParams, spec: PotentialSpec | None, state0: PhaseState,
                     t_final: float, tol: float = 1e-10, n_out: int = 201):
    """Integrate Hamilton's equations in the state's chart.

    Returns (times, trajectory) at n_out equally spaced times from 0 to
    t_final: the trajectory is one PhaseState in the start state's chart whose
    point and momenta are float arrays over the samples, and iterating it
    gives the single states.
    The Hamiltonian is evaluated from the metric and the potential; its
    gradients are taken by central differences, and each right-hand-side
    call evaluates H once, as an array over the eight shifted states of
    those differences.  The integrator is DOP853 (:mod:`darboux.dop853`),
    with ``tol`` as both its relative and its absolute tolerance.  A
    trajectory that leaves the chart domain raises BlowupError, as does one
    past min(RHS_CALLS_PER_TIME max(1, t_final), MAX_RHS_CALLS) calls of its
    right-hand side or one whose step collapses.  A t_final not finite or
    below 2.2e-308, a tol that is not finite or lies below TOL_FLOOR (100
    machine epsilons, the least relative tolerance DOP853 can honour in
    doubles), fewer than one or more than MAX_SAMPLES = 100,000 output
    samples, an array of start states or a non-finite momentum raises ParamError.
    """
    if not (math.isfinite(t_final) and t_final >= np.finfo(float).tiny):  # distinct sample times
        raise ParamError(f"t_final must be finite and at least 2.2e-308, got {t_final}")
    if not (math.isfinite(tol) and tol >= TOL_FLOOR):
        raise ParamError(f"tol must be finite and at least {TOL_FLOOR:.3g}, got {tol}")
    if not 1 <= n_out <= MAX_SAMPLES:
        raise ParamError(f"need from 1 to {MAX_SAMPLES} output samples, got {n_out}")
    _require_single(state0, "a flow")
    if not (math.isfinite(state0.p1) and math.isfinite(state0.p2)):
        raise ParamError("momenta must be finite")

    chart0 = state0.chart
    hamiltonian_value(space, spec, state0)  # DomainError unless H is defined at the start
    potential = _potential(spec)

    def rhs(t, y):
        h = 1e-6 * (1.0 + np.abs(y))
        q1, q2, p1, p2 = y[:, None] + h[:, None] * _SIGNS
        H = _hamiltonian(space, potential, Chart(chart0.name, q1, q2, chart0.d), p1, p2)
        return ((H[0::2] - H[1::2]) / (h * _HAMILTON_TWO))[_HAMILTON_ORDER]

    y0 = np.array([chart0.q1, chart0.q2, state0.p1, state0.p2])
    ts = np.linspace(0.0, t_final, n_out)
    try:
        cap = min(int(RHS_CALLS_PER_TIME * max(1.0, t_final)), MAX_RHS_CALLS)
        ys, _ = dop853(rhs, t_final, y0, ts, tol, cap)
    except DomainError as exc:
        raise BlowupError(str(exc)) from exc
    return ts, PhaseState(Chart(chart0.name, ys[0], ys[1], chart0.d), ys[2], ys[3])


def residual_constant(spec: PotentialSpec, name: str, state: PhaseState) -> float:
    """Value of a potential-specific constant of motion.

    Implemented: DIII_V5 R1, R2, R3 (the coupling corrections in parabolic
    variables added to X1, X2, K) and DIV_V4 R3 = mu p_mu + nu p_nu.
    """
    from .families import FAMILIES

    return FAMILIES[spec.family].constant(spec, name, state)


def drift(values) -> float:
    """Relative drift of a conserved quantity along a trajectory."""
    v = np.asarray(values, dtype=float)
    scale = max(np.abs(v).max(), 1e-12)
    return float((v.max() - v.min()) / scale)
