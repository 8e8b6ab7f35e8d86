"""The five special functions the package evaluates, in numpy and ``math``.

Each port runs the recipe ``scipy.special`` runs, one float64 operation for
each of its C operations and in the same order, so it returns the same bits:

* :func:`j1` and :func:`log_factorial` follow Cephes ``j1`` and ``lgam``
  (S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989);
* :func:`xlogy`, :func:`hermite` and :func:`genlaguerre` follow scipy's
  ``xlogy``, ``eval_hermite`` and ``eval_genlaguerre``.

Logarithms go through ``math.log``, which is the C library's, one element
at a time (:func:`log`): ``np.log`` rounds some arguments differently.
``np.sin``, ``np.cos`` and ``np.sqrt`` round as the C library does.  Like
scipy, the ports raise no numpy floating-point warning.
"""

import math

import numpy as np

# Cephes j1.c: a rational form in x^2 for |x| <= 5, the Hankel asymptotic form above
_J1_RP = (-8.99971225705559398224e8, 4.52228297998194034323e11,
          -7.27494245221818276015e13, 3.68295732863852883286e15)
_J1_RQ = (6.20836478118054335476e2, 2.56987256757748830383e5, 8.35146791431949253037e7,
          2.21511595479792499675e10, 4.74914122079991414898e12, 7.84369607876235854894e14,
          8.95222336184627338078e16, 5.32278620332680085395e18)
_J1_PP = (7.62125616208173112003e-4, 7.31397056940917570436e-2, 1.12719608129684925192e0,
          5.11207951146807644818e0, 8.42404590141772420927e0, 5.21451598682361504063e0,
          1.00000000000000000254e0)
_J1_PQ = (5.71323128072548699714e-4, 6.88455908754495404082e-2, 1.10514232634061696926e0,
          5.07386386128601488557e0, 8.39985554327604159757e0, 5.20982848682361821619e0,
          9.99999999999999997461e-1)
_J1_QP = (5.10862594750176621635e-2, 4.98213872951233449420e0, 7.58238284132545283818e1,
          3.66779609360150777800e2, 7.10856304998926107277e2, 5.97489612400613639965e2,
          2.11688757100572135698e2, 2.52070205858023719784e1)
_J1_QQ = (7.42373277035675149943e1, 1.05644886038262816351e3, 4.98641058337653607651e3,
          9.56231892404756170795e3, 7.99704160447350683650e3, 2.82619278517639096600e3,
          3.36093607810698293419e2)
_J1_Z1 = 1.46819706421238932572e1
_J1_Z2 = 4.92184563216946036703e1
_THPIO4 = 2.35619449019234492885
_SQ2OPI = 7.9788456080286535587989e-1
# the numerator and denominator of each rational form, as columns for _polevl_rows
_J1_NEAR = np.array([(0.0,) * 5 + _J1_RP, (1.0,) + _J1_RQ]).T
_J1_FAR = np.array([(0.0,) + _J1_PP, (0.0,) + _J1_PQ, _J1_QP, (1.0,) + _J1_QQ]).T

# Cephes lgam: Stirling's series for x >= 13
_LGAM_A = np.array([[8.11614167470508450300e-4, -5.95061904284301438324e-4,
                     7.93650340457716943945e-4, -2.77777777730099687205e-3,
                     8.33333333333331927722e-2]]).T
_LS2PI = 0.91893853320467274178
#: Entries the log-factorial table may grow to; larger arguments are evaluated per call.
_TABLE_CAP = 1 << 20


def _polevl_rows(z, coefs):
    """Cephes ``polevl`` of each column of ``coefs`` (highest power first), one row each.

    A column padded with leading zeros keeps the bits of the shorter
    polynomial at finite ``z`` (``0 z + c = c``); a leading 1 stands for the
    implicit one of Cephes ``p1evl``.
    """
    out = np.multiply.outer(coefs[0], z)
    out += coefs[1][:, None]
    for c in coefs[2:]:
        out *= z
        out += c[:, None]
    return out


def j1(x):
    """Bessel function of the first kind of order 1, as ``scipy.special.j1``."""
    x = np.asarray(x, dtype=float)
    neg = x < 0
    # j1(-x) = -j1(x); -0.0 goes through as itself
    a = np.where(neg, -x, x) if neg.any() else x
    out = np.empty_like(a)
    near = a <= 5.0
    with np.errstate(all="ignore"):
        an = a[near]
        z = an * an
        num, den = _polevl_rows(z, _J1_NEAR)
        num /= den
        num *= an
        num *= z - _J1_Z1
        num *= z - _J1_Z2
        out[near] = num
        if an.size < a.size:
            af = a[~near]
            w = 5.0 / af
            p, pq, q, qq = _polevl_rows(w * w, _J1_FAR)
            p /= pq
            q /= qq
            xn = af - _THPIO4
            p *= np.cos(xn)
            q *= w
            q *= np.sin(xn)
            p -= q
            p *= _SQ2OPI
            p /= np.sqrt(af)
            out[~near] = p
    np.negative(out, out=out, where=neg)
    return out if out.ndim else out[()]


def _lgam_of_integers(x):
    """Cephes ``lgam`` at the integer-valued floats ``x >= 1``: ``log((x - 1)!)``."""
    out = np.empty_like(x)
    small = x < 13.0
    # below 13 lgam multiplies the factorial out exactly and takes one log
    out[small] = [math.log(math.factorial(int(v) - 1)) for v in x[small].tolist()]
    xs = x[~small]
    q = (xs - 0.5) * log(xs) - xs + _LS2PI
    mid, top = xs < 1000.0, (xs >= 1000.0) & (xs <= 1e8)
    xm = xs[mid]
    q[mid] += _polevl_rows(1.0 / (xm * xm), _LGAM_A)[0] / xm
    xt = xs[top]
    p = 1.0 / (xt * xt)
    q[top] += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
               + 0.0833333333333333333333) / xt
    out[~small] = q
    return out


_log_factorials = np.zeros(0)


def log_factorial(n):
    """``log(n!)`` of a non-negative integer or integer array, as ``scipy.special.gammaln(n + 1)``.

    Values come from a table that grows, one ``math.log`` per new entry, to
    the largest argument asked for (up to ``_TABLE_CAP`` entries).
    """
    global _log_factorials
    n = np.asarray(n)
    top = int(n.max(initial=0))
    if top >= _TABLE_CAP:
        return _lgam_of_integers(n + 1.0)
    if top >= len(_log_factorials):
        new = _lgam_of_integers(np.arange(len(_log_factorials), top + 1) + 1.0)
        _log_factorials = np.concatenate([_log_factorials, new])
        _log_factorials.setflags(write=False)
    return _log_factorials[n]


def log(y):
    """The C library's ``log`` of each entry: ``-inf`` at 0 and nan below it and at nan."""
    y = np.asarray(y, dtype=float)
    out = np.where(y == 0, -math.inf, math.nan)
    pos = y > 0
    values = y[pos]
    out[pos] = np.fromiter(map(math.log, values.tolist()), dtype=float, count=values.size)
    return out


def xlogy(x, y, log_y=None):
    """``x * log(y)``, and 0 where ``x == 0`` unless ``y`` is nan, as ``scipy.special.xlogy``.

    ``log_y`` is :func:`log` of ``y``, for a caller that has it already.
    """
    if log_y is None and isinstance(y, float) and 0.0 < y < math.inf:
        out = np.multiply(x, math.log(y))
        out += 0.0  # the product is -0.0 at x == 0 when log(y) < 0: scipy's is 0.0
        return out
    y = np.asarray(y, dtype=float)
    log_y = log(y) if log_y is None else log_y
    x = np.asarray(x)
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    # no product where x == 0, so 0 * inf never turns into nan
    np.multiply(x, log_y, out=out, where=x != 0)
    np.copyto(out, log_y, where=np.isnan(y))
    return out if out.ndim else out[()]


def hermite(n, x):
    """Physicists' Hermite polynomial ``H_n(x)``, as ``scipy.special.eval_hermite``.

    scipy evaluates the probabilists' ``He_n`` at ``sqrt(2) x`` and scales by
    ``2**(n/2)``, also at ``n = 1``, where ``2 x`` rounds differently.
    """
    x = math.sqrt(2.0) * np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        if n == 0:
            he = np.where(np.isnan(x), x, 1.0)
        elif n == 1:
            he = x
        else:
            y3, y2 = np.zeros_like(x), np.ones_like(x)
            for k in range(n, 1, -1):
                y3, y2 = y2, x * y2 - k * y3
                # a value that turned nan stays nan: at high orders all soon have
                if k % 64 == 0 and np.isnan(y2).all():
                    break
            he = x * y2 - y3
        try:
            scale = 2.0 ** (n / 2.0)
        except OverflowError:
            scale = math.inf
        return he * scale


def _binom(n, k):
    """``C(n, k)`` for integers ``n >= k >= 0``, as scipy's ``binom``: its product loop
    over ``min(k, n - k)`` factors while that is below 20, ``math.comb`` beyond.
    """
    kx = float(k) if k <= n / 2 else float(n - k)
    if kx >= 20:
        return float(math.comb(n, k))
    num, den = 1.0, 1.0
    for i in range(1, 1 + int(kx)):
        num *= i + float(n) - kx
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def genlaguerre(n, alpha, x):
    """Generalized Laguerre polynomial ``L_n^(alpha)(x)`` for integers ``n, alpha >= 0``,
    as ``scipy.special.eval_genlaguerre``: its forward recurrence times ``C(n + alpha, n)``.
    """
    x = np.asarray(x, dtype=float)
    a = float(alpha)
    with np.errstate(all="ignore"):
        if n == 0:
            out = np.ones_like(x)
        elif n == 1:
            out = -x + a + 1
        else:
            d = -x / (a + 1)
            p = d + 1
            for kk in range(n - 1):
                k = kk + 1.0
                d = -x / (k + a + 1) * p + (k / (k + a + 1)) * d
                p = d + p
            out = _binom(n + alpha, n) * p
    return np.where(np.isnan(x), math.nan, out)
