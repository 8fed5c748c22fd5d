"""The explicit Runge-Kutta method DOP853 with its 7th-order dense output.

The method and its coefficients are those of Hairer, Norsett and Wanner,
*Solving Ordinary Differential Equations I* (2nd ed., Springer 1993),
Sec. II.10.  The step-size control, the initial step and the order of every
floating-point operation follow the DOP853 of SciPy's ``solve_ivp``
(scipy/integrate/_ivp, modules rk.py, common.py and dop853_coefficients.py),
so that :func:`dop853` returns bit for bit what
``solve_ivp(fun, (0, t_final), y0, t_eval=t_eval, rtol=tol, atol=tol,
method="DOP853")`` returns, with the same count of right-hand-side calls.
That code is used under SciPy's licence, which is kept with it here:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import numpy as np

from .errors import BlowupError

# HNW's tableau, as the doubles that SciPy's 30-digit literals parse to.
# Stages 0-11 make a step, row 12 holds the weights B of the 8th-order
# solution (stage 12 is f at its end), and stages 13-15 are the extra stages
# of the dense output.
C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
              0.7777777777777778])
A = [np.array(row) for row in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
)]
# the 5th- and 3rd-order error estimators, over stages 0-12
E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
               1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
               0.08192320648511571, -0.022355307863886294, 0])
E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
               0.20136540080403034, 0.02265179219836082, 0])
# the coefficients of degrees 4-7 of the dense output, over stages 0-15
D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # the step controller
ERROR_EXPONENT = -1 / 8  # the error estimate is of order 7


def _rms(x):  # np.sqrt(x @ x) is what np.linalg.norm computes for a real 1-D x
    return np.sqrt(x @ x) / x.size ** 0.5


def dop853(fun, t_final, y0, t_eval, tol, max_nfev):
    """Integrate y' = fun(t, y) from y(0) = y0 to t = t_final > 0.

    ``tol`` is both the relative and the absolute tolerance, and ``t_eval``
    the sorted times in [0, t_final] where the solution is wanted.  Returns
    (y, nfev): y[:, j] is the state at t_eval[j], and nfev the number of
    calls of ``fun``.  The call past ``max_nfev``, or a step that shrinks
    below ten spacings of the doubles at t, raises BlowupError.
    """
    nfev, t_final = 0, float(t_final)

    def f(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > max_nfev:
            raise BlowupError(f"the flow needs more than {max_nfev} right-hand-side calls")
        return fun(t, y)

    # the initial step (HNW Sec. II.4)
    t, y = 0.0, y0
    fy = f(t, y)
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_final)
    d2 = _rms((f(t + h0, y + h0 * fy) - fy) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_final)

    K = np.empty((16, len(y0)))  # the stages, one per row
    ys, i = [], 0
    while True:  # one accepted step a pass
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise BlowupError("integration stopped: Required step size is less than "
                                  "spacing between numbers.")
            t_new = min(t + h_abs, t_final)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            for s in range(1, 12):
                K[s] = f(t + C[s] * h, y + np.dot(K[:s].T, A[s]) * h)
            y_new = y + h * np.dot(K[:12].T, A[12])
            K[12] = f_new = f(t + h, y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            w5, w3 = np.dot(K[:13].T, E5) / scale, np.dot(K[:13].T, E3) / scale
            err5, err3 = np.sqrt(w5 @ w5) ** 2, np.sqrt(w3 @ w3) ** 2  # squared norms
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR,
                                                           SAFETY * error ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, fy = t_new, y_new, f_new
        j = np.searchsorted(t_eval, t, side="right")
        if j > i:  # the dense output of this step, at the samples it passed
            for s in (13, 14, 15):
                K[s] = f(t_old + C[s] * h, y_old + np.dot(K[:s].T, A[s]) * h)
            dy = y - y_old
            F = np.empty((7, len(y0)))
            F[0] = dy
            F[1] = h * K[0] - dy
            F[2] = 2 * dy - h * (fy + K[0])
            F[3:] = h * np.dot(D, K)
            x = ((t_eval[i:j] - t_old) / (t - t_old))[:, None]
            out = np.zeros((len(x), len(y0)))
            for k, row in enumerate(F[::-1]):
                out += row
                out *= x if k % 2 == 0 else 1 - x
            out += y_old
            ys.append(out.T)
            i = j
        if t - t_final >= 0:
            return np.hstack(ys), nfev
