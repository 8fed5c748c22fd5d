"""Self-contained verification suites behind ``darboux verify``.

Each suite returns {"pass": bool, "max_dev": float, "details": [...]}; the
CLI exits 0 only if every requested suite passes its stated tolerance.  The
randomized suites draw their cases from pinned seeds with the standard
library's ``random.Random``, which (unlike ``numpy.random``) costs no import.
Only ``suite_spectra`` loads the family layers (``families``, ``potentials``,
``spectra``), so in ``--suite all`` the building blocks run before they load.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .geometry import DIII, DIV, Chart, SpaceParams, curvature_closed, curvature_numeric
from . import specfun as sf


# The pinned building blocks: (model, top level, grid points, reference levels).
BUILDING_BLOCKS = [
    (sf.ModelFamily(sf.MORSE_BOUND, {"v0": 1.0, "alpha_t": 2.5}), 1, 3200, (-2.0, -0.5)),
    (sf.ModelFamily(sf.PT, {"alpha": 0.5, "beta": 0.5}), 0, 3200, (2.0,)),
    (sf.ModelFamily(sf.RHO, {"omega": 1.0, "lam": 0.5}), 0, 3200, (1.5,)),
    (sf.ModelFamily(sf.HO, {"omega": 1.0}), 3, 3200, ()),
    (sf.ModelFamily(sf.RHO, {"omega": 1.0, "lam": 1.5}), 3, 3200, ()),
    (sf.ModelFamily(sf.PT, {"alpha": 1.0, "beta": 2.0}), 3, 3200, ()),
    (sf.ModelFamily(sf.MPT_BOUND, {"eta": 0.5, "nu": 8.5}), 3, 4400, ()),
]


def suite_building_blocks() -> dict:
    from .oracle import verify_building_block

    details = []
    ok, max_dev = True, 0.0
    for fam, nmax, n_points, refs in BUILDING_BLOCKS:
        rep = verify_building_block(fam, nmax, n_points=n_points)
        for det, ref in zip(rep.details, refs):
            dev = abs(det["E_num"] - ref)
            details.append({"case": f"{fam.tag}_E{det['n']}", "value": det["E_num"], "ref": ref,
                            "dev": dev})
            ok &= dev < 1e-6
            max_dev = max(max_dev, dev)
        details.append({"case": f"certify_{fam.tag}_0..{nmax}", "dE": rep.max_dev_eigenvalue,
                        "dL2": rep.max_dev_eigenvector})
        ok &= rep.max_dev_eigenvalue < 1e-6 and rep.max_dev_eigenvector < 1e-5
        max_dev = max(max_dev, rep.max_dev_eigenvalue, rep.max_dev_eigenvector)
    return {"pass": bool(ok), "max_dev": float(max_dev), "details": details}


def suite_curvature() -> dict:
    rng = random.Random(20240817)
    details = []
    worst = 0.0
    for famname in (DIII, DIV):
        for _ in range(5):
            if famname == DIII:
                a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
                us = np.linspace(-1.2, 1.2, 10)
            else:
                b = rng.uniform(0.3, 1.5)
                a = 2.0 * b + rng.uniform(0.05, 2.0)
                us = np.linspace(0.15, math.pi / 2 - 0.15, 10)
            sp = SpaceParams(famname, a, b)
            vs = np.linspace(0.0, 1.0, 10)
            gn = curvature_numeric(sp, Chart("uv", *np.meshgrid(us, vs, indexing="ij")))
            # the closed form depends on u only
            gc = np.array([curvature_closed(sp, (float(u), 0.0)) for u in us])[:, None]
            dev = float(np.max(np.abs(gn - gc) / (1.0 + np.abs(gc))))
            details.append({"case": f"{famname} a={a:.3f} b={b:.3f}", "dev": dev})
            worst = max(worst, dev)
    line = np.zeros(20)
    flat = float(np.max(np.abs(curvature_numeric(SpaceParams(DIII, 1.0, 0.0),
                                                 Chart("uv", np.linspace(-1, 1, 20), line)))))
    hyper = float(np.max(np.abs(curvature_numeric(SpaceParams(DIV, 2.0, 1.0),
                                                  Chart("uv", np.linspace(0.2, 1.3, 20), line))
                                + 1.0)))
    details.append({"case": "flat_limit", "dev": flat})
    details.append({"case": "hyperboloid_limit", "dev": hyper})
    ok = worst < 1e-6 and flat < 1e-8 and hyper < 1e-8
    return {"pass": bool(ok), "max_dev": float(max(worst, flat, hyper)), "details": details}


def suite_spectra() -> dict:
    from .potentials import PotentialSpec
    from .spectra import QuantumNumbers, solve_quantization

    rng = random.Random(5)
    details = []
    worst = 0.0
    for _ in range(10):
        sp = SpaceParams(DIII, rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5))
        spec = PotentialSpec(sp, "DIII_V2",
                             {c: rng.uniform(0.1, 1.0) for c in ("alpha", "k1", "k2")})
        qn = QuantumNumbers(rng.randrange(4), rng.randrange(4), "uv")
        roots = solve_quantization(spec, qn)
        for rec in roots.admissible:
            worst = max(worst, rec["residual"])
    details.append({"case": "DIII_V2 plugback", "dev": worst})
    # free-motion values
    spec5 = PotentialSpec(SpaceParams(DIII, 1.0, 1.0), "DIII_V5", {"v0": 0.0})
    dev5 = 0.0
    for n in range(3):
        for l in range(3):
            roots = solve_quantization(spec5, QuantumNumbers(n, l, "uv"))
            want = -0.5 * (2 * n + 2 * l + 1) ** 2
            dev5 = max(dev5, min(abs(z.real - want) for z in roots.candidates))
    worst = max(worst, dev5)
    details.append({"case": "DIII_V5 free levels", "dev": dev5})
    ok = worst < 1e-9
    return {"pass": bool(ok), "max_dev": float(worst), "details": details}


def suite_classical() -> dict:
    from .classical import PhaseState, algebra_check, drift, hamiltonian_flow, observable_value

    rng = random.Random(9)
    worst_fun, worst_br = 0.0, 0.0
    for _ in range(60):
        sp = SpaceParams(DIII, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        st = PhaseState(Chart("uv", rng.uniform(-1, 1), rng.uniform(0, 6)),
                        rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = rng.uniform(0.3, 1.2)
        sp4 = SpaceParams(DIV, 2.0 * b + rng.uniform(0.1, 1.5), b)
        st4 = PhaseState(Chart("uv", rng.uniform(0.25, 1.3), rng.uniform(-1, 1)),
                         rng.uniform(-2, 2), rng.uniform(-2, 2))
        for space, state in ((sp, st), (sp4, st4)):
            res = algebra_check(space, state)
            worst_fun = max(worst_fun, abs(res["functional"]))
            worst_br = max(worst_br, *(abs(v) for k, v in res.items() if k.startswith("bracket")))
    sp = SpaceParams(DIII, 1.2, 0.8)
    st0 = PhaseState(Chart("uv", 0.3, 1.0), 0.7, -0.4)
    _, traj = hamiltonian_flow(sp, None, st0, 10.0, tol=1e-11)
    # one array evaluation per observable, bitwise the values of the single states
    worst_dr = max(drift(observable_value(sp, o, traj)) for o in ("X1", "X2", "K", "H0"))
    ok = worst_fun < 1e-10 and worst_br < 1e-6 and worst_dr < 1e-6
    return {"pass": bool(ok), "max_dev": float(max(worst_fun, worst_br, worst_dr)),
            "details": [{"functional": worst_fun, "brackets": worst_br, "drift": worst_dr}]}
