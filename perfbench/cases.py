"""Case tables and seeded op lists for the three benchmark workloads.

Everything here is plain data (strings, numbers, tuples, dicts), so the op
list a seed produces can be compared and stored as JSON.  Two tables mirror
the test suite on purpose: ``GATES`` is ``tests/test_acceptance.GATES``
(criterion 7) and ``GOLDEN_JOBS`` is ``tests/test_cli.JOBS``;
``mirror_drift`` reports any difference so the benchmark cannot measure
something the tests no longer pin.

An op list is a sequence of *decks*.  A deck holds every case of its
workload once, in an order the seed shuffles, with the seed drawing the
couplings and phase points where the workload has any.  A run measures a
fixed number of whole decks (``deck_count``), so two seeds measure the same
mix of work and every run has the same number of latency samples.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

WORKLOADS = ("cli_jobs", "grid_states", "spectra_certify")

# Nominal wall time of one deck on a 2-vCPU x86-64 VM, in seconds.  It turns
# the requested run time into a number of decks; the count depends only on
# the request, never on how fast the host runs on the day.
NOMINAL_DECK_S = {"cli_jobs": 10.0, "grid_states": 20.0, "spectra_certify": 0.9}


def deck_count(workload, seconds):
    """Whole decks a run of about ``seconds`` measures: the ratio to the
    nominal deck time, rounded half up, and at least one."""
    return max(1, int(seconds / NOMINAL_DECK_S[workload] + 0.5))


# ---------------------------------------------------------------- cli_jobs

GOLDEN_JOBS = {
    "curvature.csv": ["curvature", "--space", "DIV", "--a", "2", "--b", "1",
                      "--grid", "6x6", "--format", "csv"],
    "spectrum.json": ["spectrum", "--space", "DIII", "--potential", "V5", "--a", "1",
                      "--b", "1", "--v0", "0", "--scheme", "uv", "--n", "0..2",
                      "--l", "0..2", "--format", "json"],
    "wavefunction.json": ["wavefunction", "--space", "DIII", "--potential", "V5",
                          "--a", "1", "--b", "1", "--v0", "0", "--n", "0", "--l", "1",
                          "--chart", "uv", "--grid", "12x12", "--format", "json"],
    "classical.json": ["classical", "--space", "DIII", "--a", "1", "--b", "1",
                       "--q1", "0.3", "--q2", "1.0", "--p1", "0.7", "--p2", "-0.4",
                       "--t-final", "1", "--samples", "11", "--format", "json"],
}

# The user-sized jobs: what a person runs from the README, at its sizes.
USER_JOBS = {
    "spectrum_div3": ["spectrum", "--space", "DIV", "--potential", "V3", "--a", "3",
                      "--b", "1", "--c1", "0.3", "--c2", "-200", "--c3", "0.2",
                      "--scheme", "degelliptic2", "--n", "0..2", "--l", "0..2",
                      "--format", "json"],
    "wavefunction_v5": ["wavefunction", "--space", "DIII", "--potential", "V5",
                        "--a", "1", "--b", "1", "--v0", "0", "--n", "0", "--l", "1",
                        "--chart", "uv", "--grid", "40x40", "--format", "json"],
    "curvature_50": ["curvature", "--space", "DIV", "--a", "2", "--b", "1",
                     "--grid", "50x50", "--format", "csv"],
    "classical_t10": ["classical", "--space", "DIII", "--a", "1", "--b", "1",
                      "--q1", "0.3", "--q2", "1.0", "--p1", "0.7", "--p2", "-0.4",
                      "--t-final", "10", "--format", "json"],
    "verify_all": ["verify", "--suite", "all", "--format", "json"],
}

# ------------------------------------------------------------- grid_states

# (family, couplings, chart, (n, l, scheme), energy or None)
GATES = [
    ("DIII_V1", {"k1": 0.4, "k2": 0.3, "k3": 0.2}, "parabolic", (1, 0, "parabolic"), None),
    ("DIII_V2", {"alpha": 0.0, "k1": 0.3, "k2": 0.7}, "uv", (1, 0, "uv"), -12.5),
    ("DIII_V2", {"alpha": 0.0, "k1": 0.3, "k2": 0.7}, "polar", (1, 0, "polar"), -12.5),
    ("DIII_V2", {"alpha": 0.0, "k1": 0.3, "k2": 0.7}, "parabolic", (1, 1, "parabolic"), None),
    ("DIII_V3", {"alpha": 0.0, "c1": 1.2, "c2": 0.8}, "polar", (0, 0, "polar"), None),
    ("DIII_V4", {"d1": -1.5, "d2": -0.5, "omega": 1.0}, "hyperbolic", (0, 0, "hyperbolic"), -3.0),
    ("DIII_V5", {"v0": 0.0}, "uv", (0, 1, "uv"), -4.5),
    ("DIII_V5", {"v0": 0.0}, "polar", (1, 1, "polar"), -8.0),
    ("DIII_V5", {"v0": 0.0}, "parabolic", (1, 1, "parabolic"), -4.5),
    ("DIII_V5", {"v0": 0.0}, "hyperbolic", (1, 1, "hyperbolic"), -2.25),
    ("DIV_V1", {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0}, "uv", (0, 0, "uv"), None),
    ("DIV_V1", {"alpha": 12.0, "k1": 0.6, "k2": 0.4, "omega": 1.0}, "horospherical",
     (0, 0, "horospherical"), None),
    ("DIV_V2", {"k1": 2.0, "k2": 6.0, "k3": 0.5}, "uv", (0, 0, "uv"), None),
    ("DIV_V2", {"k1": 2.0, "k2": 6.0, "k3": 0.5}, "degelliptic2", (0, 0, "uv"), None),
    ("DIV_V3", {"c1": 0.3, "c2": -200.0, "c3": 0.2}, "degelliptic2",
     (0, 0, "degelliptic2"), None),
]

GRID_SHAPE = (401, 301)
RESIDUAL_BOUND = 1e-5  # criterion 7

# What normalize_weighted must do for a gate's state: "ok" for the states
# known to be normalizable, or the classified error a state whose factors
# grow toward a chart boundary must raise (the DIII_V5 (0, 1) example of
# tests/test_wavefun.py).  Gates not listed skip the norm.
NORM_EXPECT = {
    ("DIV_V1", "uv"): "ok",
    ("DIV_V1", "horospherical"): "ok",
    ("DIII_V5", "uv"): "DivergentNormError",
}

# The DIII_V4 difference-branch pair of tests/test_wavefun.py: normalizable.
V4_PAIR = [
    ("DIII_V4", {"d1": -3.0, "d2": -1.0, "omega": 1.0}, "hyperbolic", (n, 0, "hyperbolic"),
     None) for n in (0, 1)
]

# --------------------------------------------------------- spectra_certify

# Plug-back bounds of acceptance criteria 3 (quartic) and 4 (quadratics).
QUARTIC_BOUND = 1e-9
QUADRATIC_BOUND = 1e-12
# Bound on the DIV_V3 transcendental condition at its polished roots.
DIV3_BOUND = 1e-9
CURVATURE_BOUND = 1e-6          # criterion 1, relative
FUNCTIONAL_BOUND = 1e-10        # criterion 8
BRACKET_BOUND = 1e-6            # criterion 8
DRIFT_BOUND = 1e-6              # criterion 8
BB_LEVEL_BOUND = 1e-6           # criterion 6 / verify building blocks
BB_VECTOR_BOUND = 1e-5

# The two flows of acceptance criterion 8: (space, q, p), integrated to
# t = 10.  Flows from random phase points are not used: from points in the
# criterion-8 ranges, D_IV trajectories can leave the (u, v) chart before
# t = 10 (BlowupError) and a D_III one drifted by 1.1e-5.
FLOWS = {
    "DIII": ({"family": "DIII", "a": 1.2, "b": 0.8}, [0.3, 1.0], [0.7, -0.4]),
    "DIV": ({"family": "DIV", "a": 3.0, "b": 1.0}, [0.7, 0.2], [0.7, -0.4]),
}

# Spectrum tables: family, scheme, and the (n, l) table it solves.
TABLE_3x3 = [(n, l) for n in range(3) for l in range(3)]
SPECTRUM_TABLES = [
    ("DIII_V1", "parabolic", [(n, 0) for n in range(5)]),
    ("DIII_V2", "uv", TABLE_3x3),
    ("DIII_V3", "polar", TABLE_3x3),
    ("DIII_V5", "uv", TABLE_3x3),
    ("DIII_V5", "polar", TABLE_3x3),
    ("DIV_V1", "uv", TABLE_3x3),
    ("DIV_V2", "uv", TABLE_3x3),
    ("DIV_V3", "degelliptic2", TABLE_3x3),
]
# Candidates per (n, l): the degree of the family's squared quantization
# condition.  DIV_V3 is transcendental and has no fixed count; at its pinned
# acceptance couplings every (n, l) of the table has an admissible root.
CONDITION_DEGREE = {"DIII_V1": 4, "DIII_V2": 2, "DIII_V3": 2, "DIII_V5": 2, "DIV_V1": 2,
                    "DIV_V2": 2}

# The pinned model families of verify.suite_building_blocks:
# (tag, params, n_max, n_points, reference levels or None).
BUILDING_BLOCKS = [
    ("Morse_bound", {"v0": 1.0, "alpha_t": 2.5}, 1, 3200, (-2.0, -0.5)),
    ("PT", {"alpha": 0.5, "beta": 0.5}, 0, 3200, (2.0,)),
    ("RHO", {"omega": 1.0, "lam": 0.5}, 0, 3200, (1.5,)),
    ("HO", {"omega": 1.0}, 3, 3200, None),
    ("RHO", {"omega": 1.0, "lam": 1.5}, 3, 3200, None),
    ("PT", {"alpha": 1.0, "beta": 2.0}, 3, 3200, None),
    ("MPT_bound", {"eta": 0.5, "nu": 8.5}, 3, 4400, None),
]


def _space(family, a, b):
    return {"family": family, "a": a, "b": b}


def _spectrum_case(rng, family, scheme, table):
    """Seeded couplings in the ranges of acceptance criteria 3 and 4."""
    if family == "DIII_V1":
        space = _space("DIII", rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5))
        coup = {"k3": rng.uniform(-0.5, 0.5)}
    elif family.startswith("DIII"):
        space = _space("DIII", rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5))
        coup = {
            "DIII_V2": lambda: {"alpha": rng.uniform(0.05, 1), "k1": rng.uniform(0.1, 1),
                                "k2": rng.uniform(0.1, 1)},
            "DIII_V3": lambda: {"alpha": rng.uniform(0.05, 1), "c1": rng.uniform(0.3, 1.5),
                                "c2": rng.uniform(0.3, 1.5)},
            "DIII_V5": lambda: {"v0": rng.uniform(0, 1)},
        }[family]()
    elif family == "DIV_V3":
        # the acceptance couplings; the bracket scan is the measured path
        space = _space("DIV", 3.0, 1.0)
        coup = {"c1": 0.3, "c2": -200.0, "c3": 0.2}
    else:
        b = rng.uniform(0.3, 1.2)
        space = _space("DIV", 2 * b + rng.uniform(0.1, 1.5), b)
        coup = {
            "DIV_V1": lambda: {"alpha": rng.uniform(8, 16), "k1": rng.uniform(0.1, 1),
                               "k2": rng.uniform(0.1, 1), "omega": rng.uniform(0.5, 1.5)},
            "DIV_V2": lambda: {"k1": 1.0, "k2": rng.uniform(7, 10), "k3": rng.uniform(0.2, 1)},
        }[family]()
    return {"kind": "spectrum", "family": family, "scheme": scheme, "space": space,
            "couplings": coup, "table": [list(p) for p in table]}


def _phase_point(rng, family):
    """A phase-space point in the ranges of acceptance criterion 8."""
    if family == "DIII":
        space = _space("DIII", rng.uniform(0.5, 2), rng.uniform(0.5, 2))
        q = (rng.uniform(-1, 1), rng.uniform(0, 6))
    else:
        b = rng.uniform(0.3, 1.2)
        space = _space("DIV", 2 * b + rng.uniform(0.1, 1.5), b)
        q = (rng.uniform(0.25, 1.3), rng.uniform(-1, 1))
    return space, q, (rng.uniform(-2, 2), rng.uniform(-2, 2))


def _classical_case(rng, family):
    space, q, p = _phase_point(rng, family)
    return {"kind": "classical", "space": space, "q": list(q), "p": list(p),
            "flow": FLOWS[family]}


def _curvature_case(rng, family):
    """A 10x10 (u, v) patch on a surface drawn as in acceptance criterion 1."""
    if family == "DIII":
        space = _space("DIII", rng.uniform(0.5, 3), rng.uniform(0.5, 3))
        u_lo, u_hi = -1.2, 1.2
    else:
        b = rng.uniform(0.3, 1.5)
        space = _space("DIV", 2 * b + rng.uniform(0.05, 2), b)
        u_lo, u_hi = 0.15, math.pi / 2 - 0.15
    v0 = rng.uniform(0.0, 5.0)
    return {"kind": "curvature", "space": space, "u": [u_lo, u_hi], "v": [v0, v0 + 1.0],
            "points": 10}


def _deck(workload, rng):
    if workload == "cli_jobs":
        ops = [{"kind": "golden", "name": k, "argv": GOLDEN_JOBS[k]} for k in GOLDEN_JOBS]
        ops += [{"kind": "user", "name": k, "argv": USER_JOBS[k]} for k in USER_JOBS]
    elif workload == "grid_states":
        ops = [{"kind": "state", "case": list(g), "norm": NORM_EXPECT.get((g[0], g[2]))}
               for g in GATES]
        ops += [{"kind": "state", "case": list(g), "norm": "ok"} for g in V4_PAIR]
    else:
        ops = [_spectrum_case(rng, *table) for table in SPECTRUM_TABLES]
        ops += [{"kind": "building_block", "case": list(bb)} for bb in BUILDING_BLOCKS]
        ops += [_classical_case(rng, fam) for fam in ("DIII", "DIV")]
        ops += [_curvature_case(rng, fam) for fam in ("DIII", "DIV")]
    rng.shuffle(ops)
    return ops


def warm_up_deck():
    """One cheap spectra_certify op of each kind, the same for every seed."""
    rng = random.Random("warm-up")
    return [_spectrum_case(rng, "DIII_V2", "uv", [(0, 0)]),
            {"kind": "building_block", "case": list(BUILDING_BLOCKS[3])},
            _classical_case(rng, "DIII"),
            _curvature_case(rng, "DIV")]


def decks(workload, seed):
    """Endless seeded stream of decks for a workload (same seed, same decks)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _deck(workload, rng)


def first_decks(workload, seed, count):
    stream = decks(workload, seed)
    return [next(stream) for _ in range(count)]


def mirror_drift(root: Path):
    """Differences between the mirrored tables and the tests they copy.

    Imports ``tests/test_acceptance.py`` and ``tests/test_cli.py`` from the
    checkout at ``root`` (read-only) and returns a list of messages, empty
    when ``GATES`` and ``GOLDEN_JOBS`` match exactly.
    """
    for p in (root / "src", root / "tests"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))
    import test_acceptance
    import test_cli

    problems = []
    if [tuple(g) for g in test_acceptance.GATES] != [tuple(g) for g in GATES]:
        problems.append("cases.GATES differs from tests/test_acceptance.GATES")
    if test_cli.JOBS != GOLDEN_JOBS:
        problems.append("cases.GOLDEN_JOBS differs from tests/test_cli.JOBS")
    golden = root / "tests" / "golden"
    missing = [k for k in GOLDEN_JOBS if not (golden / k).is_file()]
    if missing:
        problems.append(f"golden files missing: {missing}")
    return problems
