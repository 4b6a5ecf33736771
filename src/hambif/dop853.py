"""The Dormand-Prince 8(5,3) tableau and the state interpolant built from it.

The coefficients are those of Hairer's DOP853 code (Hairer, Norsett and
Wanner, Solving ODEs I, section II.10): 12 stages give the order-8 step and
the 5th- and 3rd-order error estimates, and stages 13 to 15 exist only for
the order-7 dense output.
"""

from __future__ import annotations

import numpy as np

N_STAGES = 12
N_STAGES_EXTENDED = 16

# the nonzero entries of each row of the (lower triangular) stage matrix
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    # row 12 holds the weights B of the order-8 step
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}
A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
for _row, _entries in _A_ROWS.items():
    for _col, _value in _entries.items():
        A[_row, _col] = _value

B = A[N_STAGES, :N_STAGES]

# the 3rd-order error weights are B minus the order-3 embedded weights
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
for _col, _value in {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
                     6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
                     8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
                     10: 0.8192320648511571246570742613e-1,
                     11: -0.2235530786388629525884427845e-1}.items():
    E5[_col] = _value

# the dense-output coefficients of powers 3 to 6; powers 0 to 2 come from the
# step's end points and end slopes
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)
D = np.zeros((len(_D_ROWS), N_STAGES_EXTENDED))
for _row, _entries in enumerate(_D_ROWS):
    for _col, _value in _entries.items():
        D[_row, _col] = _value


# scipy's step-size controller: a new step is the old one times
# SAFETY * error ** (-1/8), clipped to [MIN_FACTOR, MAX_FACTOR]
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0


def _rms(x):
    # np.linalg.norm's value, bit for bit; a numpy scalar, so that a zero
    # first step after an infinite slope makes a NaN here, not an exception
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def initial_step(rhs, y0, f0, T: float, rtol, atol) -> float:
    """The starting step of Hairer, Norsett and Wanner (section II.4), as in
    scipy: it costs one right-hand side ``rhs(y)``."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, T)
    d2 = _rms((rhs(y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, T)


def step_factor(error: float, rejected: bool) -> float:
    """scipy's factor for the next step size after a step of this error
    norm: a step with ``error < 1`` is accepted, and after a rejection within
    the same step the size does not grow."""
    if error < 1:
        factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT)
        return min(1.0, factor) if rejected else factor
    # a NaN error lands here: a rejection
    return max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)


class StateInterpolant:
    """The order-7 DOP853 dense output of the state rows over accepted steps.

    ``ts`` and ``xs`` are the accepted times and states (``steps + 1`` of
    each), ``K`` the 13 stage slopes of the state rows in each step.  The 3
    extra stages that the dense output needs are evaluated on the first call,
    each by one state-only ``field(X)`` call over the ``(steps, n)`` array of
    that stage's states in every step.  Called like scipy's ``OdeSolution``:
    a scalar ``t`` gives shape ``(n,)``, an array of ``m`` times shape
    ``(n, m)``; at a step boundary the earlier step is used.
    """

    def __init__(self, field, ts, xs, K):
        self.ts = np.asarray(ts, dtype=float)
        self._field = field
        self._xs = np.asarray(xs, dtype=float)
        self._K = np.asarray(K, dtype=float)  # (steps, 13, n)
        self._F = None

    def _coefficients(self) -> np.ndarray:
        """Per step, the 7 coefficients of the interpolating polynomial."""
        steps, _, n = self._K.shape
        h = np.diff(self.ts)[:, None]
        x_old, x_new = self._xs[:-1], self._xs[1:]
        K = np.concatenate([self._K, np.empty((steps, N_STAGES_EXTENDED - N_STAGES - 1, n))], axis=1)
        for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
            K[:, s] = self._field(x_old + h * (A[s, :s] @ K[:, :s]))
        delta = x_new - x_old
        f_old, f_new = K[:, 0], K[:, N_STAGES]
        return np.concatenate([
            np.stack([delta, h * f_old - delta, 2.0 * delta - h * (f_new + f_old)], axis=1),
            h[:, :, None] * (D @ K),
        ], axis=1)

    def __call__(self, t):
        if self._F is None:
            self._F = self._coefficients()
        t = np.asarray(t, dtype=float)
        times = t.reshape(-1)
        step = np.clip(np.searchsorted(self.ts, times, side="left") - 1, 0, self.ts.size - 2)
        x = ((times - self.ts[step]) / (self.ts[step + 1] - self.ts[step]))[:, None]
        F = self._F[step]
        # Horner's scheme in x and 1 - x alternately, from the highest power
        y = np.zeros((times.size, F.shape[2]))
        for i in range(F.shape[1]):
            y += F[:, -1 - i]
            y *= x if i % 2 == 0 else 1.0 - x
        y += self._xs[step]
        return y[0] if t.ndim == 0 else y.T
