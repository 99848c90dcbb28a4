"""The observer laws on Python floats: the source of both kernel builds.

Each ``*_sample`` function advances one measurement interval: classical
RK4 (:func:`_rk4`, shared by all three observers) over the continuous
correction laws with the interval's measurements held fixed, optionally
split into equal substeps.  The step functions in
:mod:`lieslam.filter_basic`, :mod:`lieslam.filter_imu` and
:mod:`lieslam.quaternion` pack their records into a flat state
(attitude, position, bias, then the landmarks row by row: 9 + 3 + 6 + 3n
floats, or 4 + 3 + 6 + 3n with a quaternion attitude) and a tuple of
per-interval parameters, as Python lists built once per step with
``ndarray.tolist``, call the kernel once through :mod:`lieslam._kernels`,
and unpack the flat result.  Every operation here is plain float
arithmetic.

This module is read two ways.  ``_ctranslate`` parses it with
:mod:`ast` and turns the three ``*_sample`` kernels, the three
``_*_rates`` and what they call into C; ``_kernels`` imports it only
when that build is missing, for the interpreted fallback.  The tests
import it as the compiled build's parity oracle.

The translated kernels keep to a subset of Python: floats and ints,
tuples and lists of floats or of 3-float rows, the parameter tuples,
assignments and unpacking, ``+ - * /`` and ``**`` by a positive integer
literal, comparisons, ``and``/``or``/``not``, ``if``, ``for`` over
``range``, list comprehensions over a ``zip``,
``append``, ``len``, slices, ``sqrt``, ``isfinite`` and calls of the
kernels themselves (a kernel passed as an argument, like ``_rk4``'s
``rates``, is specialised at compile time).  Module-level ``int`` and
``float`` constants are inlined.

The output bytes are part of the contract, so every law keeps its float
operations and their order: ``x ** 2`` (not ``x * x``), the groupings as
written (e.g. ``scale * (k_w / tau) * half``), accumulations from 0.0 in
a fixed order, and no dot products, ``sum`` or ``fsum`` reordering.  The
C build keeps them too: no FMA contraction, libm ``pow`` and ``sqrt``.

Python floats raise ``OverflowError`` on a finite overflow in ``**`` and
``ZeroDivisionError`` on ``/ 0.0``, where numpy returned inf or nan; the
compiled kernels raise the same two (and ``ValueError`` where
``math.sqrt`` would), for the first such operation in Python's order.
The step boundary (``filter_basic.run_sample``) reports both as
divergence.
"""

from __future__ import annotations

from math import isfinite, sqrt

# Floor for the attitude gain divisor: keeps the correction finite on the
# antipodal set where lambda_min * (1 + pi) -> 0.
TAU_FLOOR = 1e-6
# Condition-number guard for the pi estimate's matrix inversion.
_PI_COND_LIMIT = 1e8
# Orthonormality drift that triggers a Gram-Schmidt repair after integration.
_ROTATION_DRIFT_TOL = 1e-9

# offsets into the flat state of the matrix filters
_POS = 9
_BIAS = 12
_LM = 18
# ... and of the quaternion filter
_Q_POS = 4
_Q_BIAS = 7
_Q_LM = 13


def _axpy(x, c, k):
    """x + c * k, element by element."""
    return [a + c * d for a, d in zip(x, k)]


def _rk4(rates, x, params, h):
    """One classical fourth-order step of length h of dx/dt = rates(x, params)."""
    c = 0.5 * h
    k1 = rates(x, params)
    k2 = rates(_axpy(x, c, k1), params)
    k3 = rates(_axpy(x, c, k2), params)
    k4 = rates(_axpy(x, h, k3), params)
    s = h / 6.0
    return [a + s * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            for a, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4)]


def _renormalize(x):
    """Conditional modified Gram-Schmidt over the rows of the rotation
    held in x[:9]; returns x itself when the drift is within tolerance."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = x[:_POS]
    # entries of R^T R - I, accumulated in row-major order
    g00 = r00 * r00 + r10 * r10 + r20 * r20 - 1.0
    g01 = r00 * r01 + r10 * r11 + r20 * r21
    g02 = r00 * r02 + r10 * r12 + r20 * r22
    g11 = r01 * r01 + r11 * r11 + r21 * r21 - 1.0
    g12 = r01 * r02 + r11 * r12 + r21 * r22
    g22 = r02 * r02 + r12 * r12 + r22 * r22 - 1.0
    drift = (0.0 + g00 * g00 + g01 * g01 + g02 * g02 + g01 * g01 + g11 * g11
             + g12 * g12 + g02 * g02 + g12 * g12 + g22 * g22)
    if sqrt(drift) <= _ROTATION_DRIFT_TOL:
        return x
    s = sqrt(r00 ** 2 + r01 ** 2 + r02 ** 2)
    r00 /= s
    r01 /= s
    r02 /= s
    d = r10 * r00 + r11 * r01 + r12 * r02
    r10 -= d * r00
    r11 -= d * r01
    r12 -= d * r02
    s = sqrt(r10 ** 2 + r11 ** 2 + r12 ** 2)
    r10 /= s
    r11 /= s
    r12 /= s
    d0 = r20 * r00 + r21 * r01 + r22 * r02
    d1 = r20 * r10 + r21 * r11 + r22 * r12
    r20 -= d0 * r00 + d1 * r10
    r21 -= d0 * r01 + d1 * r11
    r22 -= d0 * r02 + d1 * r12
    s = sqrt(r20 ** 2 + r21 ** 2 + r22 ** 2)
    return [r00, r01, r02, r10, r11, r12, r20 / s, r21 / s, r22 / s] + x[_POS:]


def _gain_divisor(a, b, lam_min):
    """lambda_min * (1 + tr(a b^-1)), floored at TAU_FLOOR on the
    antipodal set and when b is singular or ill-conditioned (numpy
    reference: ``attitude_gain_divisor`` in ``tests/_support.py``).

    ``a`` and ``b`` are 3x3 matrices as row-major 9-tuples.
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    det = (b00 * (b11 * b22 - b12 * b21)
           - b01 * (b10 * b22 - b12 * b20)
           + b02 * (b10 * b21 - b11 * b20))
    if det == 0.0 or not isfinite(det):
        return TAU_FLOOR
    i00 = (b11 * b22 - b12 * b21) / det
    i01 = (b02 * b21 - b01 * b22) / det
    i02 = (b01 * b12 - b02 * b11) / det
    i10 = (b12 * b20 - b10 * b22) / det
    i11 = (b00 * b22 - b02 * b20) / det
    i12 = (b02 * b10 - b00 * b12) / det
    i20 = (b10 * b21 - b11 * b20) / det
    i21 = (b01 * b20 - b00 * b21) / det
    i22 = (b00 * b11 - b01 * b10) / det
    nb = (0.0 + b00 ** 2 + b01 ** 2 + b02 ** 2 + b10 ** 2 + b11 ** 2
          + b12 ** 2 + b20 ** 2 + b21 ** 2 + b22 ** 2)
    ni = (0.0 + i00 ** 2 + i01 ** 2 + i02 ** 2 + i10 ** 2 + i11 ** 2
          + i12 ** 2 + i20 ** 2 + i21 ** 2 + i22 ** 2)
    if sqrt(nb) * sqrt(ni) >= _PI_COND_LIMIT:
        return TAU_FLOOR
    pi = (0.0 + a00 * i00 + a01 * i10 + a02 * i20 + a10 * i01 + a11 * i11
          + a12 * i21 + a20 * i02 + a21 * i12 + a22 * i22)
    tau = lam_min * (1.0 + pi)
    if not isfinite(tau) or tau < TAU_FLOOR:
        return TAU_FLOOR
    return tau


def _direction_terms(vh, refs, body, w, lam_min):
    """Half attitude innovation sum_j (w_j / 2) vh_j x body_j and the
    gain divisor tau, from the estimated directions vh_j (reference j
    carried into the body frame by the attitude estimate)."""
    h0 = h1 = h2 = 0.0
    a00 = a01 = a02 = a10 = a11 = a12 = a20 = a21 = a22 = 0.0
    b00 = b01 = b02 = b10 = b11 = b12 = b20 = b21 = b22 = 0.0
    for j in range(len(refs)):
        f0, f1, f2 = refs[j]
        o0, o1, o2 = body[j]
        v0, v1, v2 = vh[j]
        wj = w[j]
        hw = 0.5 * wj
        h0 += hw * (v1 * o2 - v2 * o1)
        h1 += hw * (v2 * o0 - v0 * o2)
        h2 += hw * (v0 * o1 - v1 * o0)
        c = wj * o0
        a00 += c * f0
        a01 += c * f1
        a02 += c * f2
        c = wj * o1
        a10 += c * f0
        a11 += c * f1
        a12 += c * f2
        c = wj * o2
        a20 += c * f0
        a21 += c * f1
        a22 += c * f2
        c = wj * v0
        b00 += c * f0
        b01 += c * f1
        b02 += c * f2
        c = wj * v1
        b10 += c * f0
        b11 += c * f1
        b12 += c * f2
        c = wj * v2
        b20 += c * f0
        b21 += c * f1
        b22 += c * f2
    tau = _gain_divisor((a00, a01, a02, a10, a11, a12, a20, a21, a22),
                        (b00, b01, b02, b10, b11, b12, b20, b21, b22), lam_min)
    return h0, h1, h2, tau


def _imu_rates(x, params):
    """Continuous rates of the IMU-aided observer at one flat state.

    ``params`` is (y, refs, body, w, lam_min, om_m, v_m, k_w, k_1, k_2,
    g1, g2, inv_alpha, scale) with y, refs and body given row by row.
    """
    (y, refs, body, w, lam_min, om_m, v_m, k_w, k_1, k_2, g1, g2,
     inv_alpha, scale) = params
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = x[:_POS]
    p0, p1, p2 = x[_POS:_BIAS]
    bw0, bw1, bw2, bv0, bv1, bv2 = x[_BIAS:_LM]

    # attitude innovation from the direction pairs, and the gain divisor
    vh = []
    for j in range(len(refs)):
        f0, f1, f2 = refs[j]
        vh.append((r00 * f0 + r10 * f1 + r20 * f2,
                   r01 * f0 + r11 * f1 + r21 * f2,
                   r02 * f0 + r12 * f1 + r22 * f2))
    h0, h1, h2, tau = _direction_terms(vh, refs, body, w, lam_min)
    kt = scale * (k_w / tau)
    wo0 = kt * h0
    wo1 = kt * h1
    wo2 = kt * h2

    # landmark innovations: translation drive, bias sums, landmark rates
    nk1 = -k_1
    se0 = se1 = se2 = 0.0   # sum of inv_alpha * e_body
    sc0 = sc1 = sc2 = 0.0   # sum of inv_alpha * (y x e_body)
    lm_dot = []
    for i in range(len(y)):
        y0, y1, y2 = y[i]
        j = _LM + 3 * i
        e0 = x[j] - (r00 * y0 + r01 * y1 + r02 * y2) - p0
        e1 = x[j + 1] - (r10 * y0 + r11 * y1 + r12 * y2) - p1
        e2 = x[j + 2] - (r20 * y0 + r21 * y1 + r22 * y2) - p2
        eb0 = r00 * e0 + r10 * e1 + r20 * e2
        eb1 = r01 * e0 + r11 * e1 + r21 * e2
        eb2 = r02 * e0 + r12 * e1 + r22 * e2
        ia = inv_alpha[i]
        se0 += ia * eb0
        se1 += ia * eb1
        se2 += ia * eb2
        sc0 += ia * (y1 * eb2 - y2 * eb1)
        sc1 += ia * (y2 * eb0 - y0 * eb2)
        sc2 += ia * (y0 * eb1 - y1 * eb0)
        c0 = y1 * wo2 - y2 * wo1
        c1 = y2 * wo0 - y0 * wo2
        c2 = y0 * wo1 - y1 * wo0
        lm_dot.append(nk1 * e0 + (r00 * c0 + r01 * c1 + r02 * c2))
        lm_dot.append(nk1 * e1 + (r10 * c0 + r11 * c1 + r12 * c2))
        lm_dot.append(nk1 * e2 + (r20 * c0 + r21 * c1 + r22 * c2))

    nk2 = -k_2
    om0 = om_m[0] - bw0 - wo0
    om1 = om_m[1] - bw1 - wo1
    om2 = om_m[2] - bw2 - wo2
    u0 = v_m[0] - bv0 - nk2 * se0
    u1 = v_m[1] - bv1 - nk2 * se1
    u2 = v_m[2] - bv2 - nk2 * se2
    g10, g11, g12 = g1
    g20, g21, g22 = g2
    sh = scale * 0.5
    return [
        r01 * om2 - r02 * om1, r02 * om0 - r00 * om2, r00 * om1 - r01 * om0,
        r11 * om2 - r12 * om1, r12 * om0 - r10 * om2, r10 * om1 - r11 * om0,
        r21 * om2 - r22 * om1, r22 * om0 - r20 * om2, r20 * om1 - r21 * om0,
        r00 * u0 + r01 * u1 + r02 * u2,
        r10 * u0 + r11 * u1 + r12 * u2,
        r20 * u0 + r21 * u1 + r22 * u2,
        sh * g10 * h0 - g10 * sc0,
        sh * g11 * h1 - g11 * sc1,
        sh * g12 * h2 - g12 * sc2,
        -g20 * se0, -g21 * se1, -g22 * se2,
    ] + lm_dot


def imu_sample(x, params, dt, nsub):
    """One measurement interval of the IMU-aided observer (RK4)."""
    h = dt / nsub
    state = x
    for _ in range(nsub):
        state = _rk4(_imu_rates, state, params, h)
    return _renormalize(state)


def _basic_rates(x, params):
    """Continuous rates of the feature-only observer at one flat state.

    ``params`` is (y, om_m, v_m, k_w, k_1, gamma, inv_alpha), y row by row.
    """
    y, om_m, v_m, k_w, k_1, gamma, inv_alpha = params
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = x[:_POS]
    p0, p1, p2 = x[_POS:_BIAS]
    bw0, bw1, bw2, bv0, bv1, bv2 = x[_BIAS:_LM]

    nk1 = -k_1
    zr0 = zr1 = zr2 = 0.0      # sum g_i x e_i
    zv0 = zv1 = zv2 = 0.0      # sum e_i
    zwr0 = zwr1 = zwr2 = 0.0   # weighted sums for the bias drive
    zwv0 = zwv1 = zwv2 = 0.0
    lm_dot = []
    for i in range(len(y)):
        y0, y1, y2 = y[i]
        j = _LM + 3 * i
        l0 = x[j]
        l1 = x[j + 1]
        l2 = x[j + 2]
        e0 = l0 - (r00 * y0 + r01 * y1 + r02 * y2) - p0
        e1 = l1 - (r10 * y0 + r11 * y1 + r12 * y2) - p1
        e2 = l2 - (r20 * y0 + r21 * y1 + r22 * y2) - p2
        gi0 = l0 - e0
        gi1 = l1 - e1
        gi2 = l2 - e2
        c0 = gi1 * e2 - gi2 * e1
        c1 = gi2 * e0 - gi0 * e2
        c2 = gi0 * e1 - gi1 * e0
        ia = inv_alpha[i]
        zr0 += c0
        zr1 += c1
        zr2 += c2
        zv0 += e0
        zv1 += e1
        zv2 += e2
        zwr0 += ia * c0
        zwr1 += ia * c1
        zwr2 += ia * c2
        zwv0 += ia * e0
        zwv1 += ia * e1
        zwv2 += ia * e2
        lm_dot.append(nk1 * e0)
        lm_dot.append(nk1 * e1)
        lm_dot.append(nk1 * e2)

    # pose correction -k_w Ad(T^-1) [zr; zv] with T^-1 = (R^T, -R^T P)
    rzr0 = r00 * zr0 + r10 * zr1 + r20 * zr2
    rzr1 = r01 * zr0 + r11 * zr1 + r21 * zr2
    rzr2 = r02 * zr0 + r12 * zr1 + r22 * zr2
    rzv0 = r00 * zv0 + r10 * zv1 + r20 * zv2
    rzv1 = r01 * zv0 + r11 * zv1 + r21 * zv2
    rzv2 = r02 * zv0 + r12 * zv1 + r22 * zv2
    rp0 = r00 * p0 + r10 * p1 + r20 * p2
    rp1 = r01 * p0 + r11 * p1 + r21 * p2
    rp2 = r02 * p0 + r12 * p1 + r22 * p2
    nkw = -k_w
    om0 = om_m[0] - bw0 - nkw * rzr0
    om1 = om_m[1] - bw1 - nkw * rzr1
    om2 = om_m[2] - bw2 - nkw * rzr2
    u0 = v_m[0] - bv0 - nkw * (rzv0 - (rp1 * rzr2 - rp2 * rzr1))
    u1 = v_m[1] - bv1 - nkw * (rzv1 - (rp2 * rzr0 - rp0 * rzr2))
    u2 = v_m[2] - bv2 - nkw * (rzv2 - (rp0 * rzr1 - rp1 * rzr0))

    # bias drive Ad(T)^T [zwr; zwv] = [R^T (zwr - P x zwv); R^T zwv]
    d0 = zwr0 - (p1 * zwv2 - p2 * zwv1)
    d1 = zwr1 - (p2 * zwv0 - p0 * zwv2)
    d2 = zwr2 - (p0 * zwv1 - p1 * zwv0)
    gm0, gm1, gm2, gm3, gm4, gm5 = gamma
    return [
        r01 * om2 - r02 * om1, r02 * om0 - r00 * om2, r00 * om1 - r01 * om0,
        r11 * om2 - r12 * om1, r12 * om0 - r10 * om2, r10 * om1 - r11 * om0,
        r21 * om2 - r22 * om1, r22 * om0 - r20 * om2, r20 * om1 - r21 * om0,
        r00 * u0 + r01 * u1 + r02 * u2,
        r10 * u0 + r11 * u1 + r12 * u2,
        r20 * u0 + r21 * u1 + r22 * u2,
        -gm0 * (r00 * d0 + r10 * d1 + r20 * d2),
        -gm1 * (r01 * d0 + r11 * d1 + r21 * d2),
        -gm2 * (r02 * d0 + r12 * d1 + r22 * d2),
        -gm3 * (r00 * zwv0 + r10 * zwv1 + r20 * zwv2),
        -gm4 * (r01 * zwv0 + r11 * zwv1 + r21 * zwv2),
        -gm5 * (r02 * zwv0 + r12 * zwv1 + r22 * zwv2),
    ] + lm_dot


def basic_sample(x, params, dt, nsub):
    """One measurement interval of the feature-only observer (RK4)."""
    h = dt / nsub
    state = x
    for _ in range(nsub):
        state = _rk4(_basic_rates, state, params, h)
    return _renormalize(state)


def _quat_rotate(q, x):
    """Conjugation q (x) (0, x) (x) q^-1 in expanded form; q a 4-tuple,
    x a 3-vector, result a 3-tuple."""
    q0, q1, q2, q3 = q
    x0, x1, x2 = x
    tx = q2 * x2 - q3 * x1
    ty = q3 * x0 - q1 * x2
    tz = q1 * x1 - q2 * x0
    return (x0 + 2.0 * (q0 * tx + q2 * tz - q3 * ty),
            x1 + 2.0 * (q0 * ty + q3 * tx - q1 * tz),
            x2 + 2.0 * (q0 * tz + q1 * ty - q2 * tx))


def _quat_rates(x, params):
    """Continuous rates of the quaternion build of the IMU observer.

    Same ``params`` as :func:`_imu_rates`; the flat state starts with
    the scalar-first unit quaternion instead of a rotation matrix.
    """
    (y, refs, body, w, lam_min, om_m, v_m, k_w, k_1, k_2, g1, g2,
     inv_alpha, scale) = params
    q0, q1, q2, q3 = x[:_Q_POS]
    p0, p1, p2 = x[_Q_POS:_Q_BIAS]
    bw0, bw1, bw2, bv0, bv1, bv2 = x[_Q_BIAS:_Q_LM]
    q = (q0, q1, q2, q3)
    qc = (q0, -q1, -q2, -q3)

    vh = []
    for j in range(len(refs)):
        vh.append(_quat_rotate(qc, refs[j]))
    h0, h1, h2, tau = _direction_terms(vh, refs, body, w, lam_min)

    # carried to the inertial frame and straight back by conjugation,
    # matching the matrix filter's body-frame innovation
    n0, n1, n2 = _quat_rotate(qc, _quat_rotate(q, (h0, h1, h2)))
    kt = scale * (k_w / tau)
    wo0 = kt * n0
    wo1 = kt * n1
    wo2 = kt * n2

    nk1 = -k_1
    se0 = se1 = se2 = 0.0
    sc0 = sc1 = sc2 = 0.0
    lm_dot = []
    for i in range(len(y)):
        y0, y1, y2 = y[i]
        j = _Q_LM + 3 * i
        ry0, ry1, ry2 = _quat_rotate(q, y[i])
        e0 = x[j] - ry0 - p0
        e1 = x[j + 1] - ry1 - p1
        e2 = x[j + 2] - ry2 - p2
        eb0, eb1, eb2 = _quat_rotate(qc, (e0, e1, e2))
        ia = inv_alpha[i]
        se0 += ia * eb0
        se1 += ia * eb1
        se2 += ia * eb2
        sc0 += ia * (y1 * eb2 - y2 * eb1)
        sc1 += ia * (y2 * eb0 - y0 * eb2)
        sc2 += ia * (y0 * eb1 - y1 * eb0)
        t0, t1, t2 = _quat_rotate(q, (y1 * wo2 - y2 * wo1,
                                      y2 * wo0 - y0 * wo2,
                                      y0 * wo1 - y1 * wo0))
        lm_dot.append(nk1 * e0 + t0)
        lm_dot.append(nk1 * e1 + t1)
        lm_dot.append(nk1 * e2 + t2)

    nk2 = -k_2
    chi0 = om_m[0] - bw0 - wo0
    chi1 = om_m[1] - bw1 - wo1
    chi2 = om_m[2] - bw2 - wo2
    pd0, pd1, pd2 = _quat_rotate(q, (v_m[0] - bv0 - nk2 * se0,
                                     v_m[1] - bv1 - nk2 * se1,
                                     v_m[2] - bv2 - nk2 * se2))
    g10, g11, g12 = g1
    g20, g21, g22 = g2
    sh = scale * 0.5
    # dq/dt = 0.5 q (x) (0, chi)
    return [
        0.5 * (-q1 * chi0 - q2 * chi1 - q3 * chi2),
        0.5 * (q0 * chi0 + q2 * chi2 - q3 * chi1),
        0.5 * (q0 * chi1 + q3 * chi0 - q1 * chi2),
        0.5 * (q0 * chi2 + q1 * chi1 - q2 * chi0),
        pd0, pd1, pd2,
        sh * g10 * n0 - g10 * sc0,
        sh * g11 * n1 - g11 * sc1,
        sh * g12 * n2 - g12 * sc2,
        -g20 * se0, -g21 * se1, -g22 * se2,
    ] + lm_dot


def quat_sample(x, params, dt, nsub):
    """One measurement interval of the quaternion observer (RK4), with
    the quaternion renormalized after every substep."""
    h = dt / nsub
    state = x
    for _ in range(nsub):
        state = _rk4(_quat_rates, state, params, h)
        q0, q1, q2, q3 = state[:_Q_POS]
        qn = sqrt(q0 ** 2 + q1 ** 2 + q2 ** 2 + q3 ** 2)
        state = [q0 / qn, q1 / qn, q2 / qn, q3 / qn] + state[_Q_POS:]
    return state

