"""The Dormand-Prince 8(5,3) Runge-Kutta method (DOP853) for drdt = G(t) r.

Tableau and error estimator from E. Hairer, S. P. Norsett and G. Wanner,
Solving Ordinary Differential Equations I, 2nd ed. (Springer, 1993),
sections II.5 and II.10, and their Fortran code dop853.f (after J. R. Dormand
and P. J. Prince, J. Comput. Appl. Math. 6, 19 (1980)): 12 stages, an
8th-order solution, and an error estimate that blends the 5th- and
3rd-order embedded differences.

The right-hand side is linear and G does not depend on r, so every stage
time t + c_i h is known before a step starts: `steps` takes the stage
generators of one or more step sizes from a single batched generator call
and runs the stage recursion as 3x3 mat-vecs.  The node c_11 = 1, so the
last stage generator is G(t + h).
"""

from __future__ import annotations

import numpy as np

#: error-estimator order; the step-size controller's exponent is -1/(ORDER + 1)
ORDER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0])

#: row s holds a_{s,0..s-1}; A[s] is that row as a column
_ROWS = [
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
]
A = [np.array(row)[:, None] for row in _ROWS]

#: weights of the 8th-order solution
B = np.array([5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
              4.45031289275240888144113950566, 1.89151789931450038304281599044,
              -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
              -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
              4.47106157277725905176885569043e-2])

#: 8th-order weights minus the embedded 3rd-order ones
E3 = B - np.array([0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                   0.733846688281611857341361741547, 0.0, 0.0,
                   0.220588235294117647058823529412e-1])

#: 8th-order weights minus the embedded 5th-order ones
E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
               -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
               0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
               0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
               -0.2235530786388629525884427845e-1])


def steps(genfn, t, y, f, hs):
    """One step of each size h in hs (shape (n,)) from the state y at time t,
    where f = G(t) y.

    genfn is called once, on all n x 11 stage times.  Returns the n new
    states, shape (n, 3), the generators G(t + h), shape (n, 3, 3), and the
    stage increments h k_i as columns, shape (n, 3, 12).
    """
    gens = genfn((t + hs[:, None] * C[1:]).ravel()).reshape(hs.size, C.size - 1, 3, 3)
    hgens = hs[:, None, None, None] * gens
    y = y[:, None]
    w = np.empty((hs.size, 3, C.size))
    w[:, :, 0] = hs[:, None] * f
    for s in range(1, C.size):
        w[:, :, s:s + 1] = hgens[:, s - 1] @ (y + w[:, :, :s] @ A[s])
    return y[:, 0] + w @ B, gens[:, -1], w


def error_norm(w, scale):
    """Scaled error of a step with stage increments w, shape (3, 12), as in
    dop853.f: |e5|^2 / sqrt((|e5|^2 + |e3|^2 / 100) n) for the embedded
    differences e5 and e3 divided by the scale."""
    e5 = np.sum(((w @ E5) / scale) ** 2)
    e3 = np.sum(((w @ E3) / scale) ** 2)
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return e5 / np.sqrt((e5 + 0.01 * e3) * scale.size)
