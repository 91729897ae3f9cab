"""Jacobi elliptic functions and the complete elliptic integrals.

Everything here uses the modulus convention k (not the parameter m = k^2):

    K(k)          = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)
    E(k)          = integral_0^{pi/2} sqrt(1 - k^2 sin^2 theta) dtheta
    sn, cn, dn    = Jacobi functions with sn^2 + cn^2 = 1, dn^2 + k^2 sn^2 = 1

K and E are computed by the arithmetic-geometric mean, sn/cn/dn by a descending
Landen transformation (AGM phase recursion).  Both are quadratically
convergent and accurate to ~1e-14 away from k = 1.  Inverses of cn and dn on
their principal monotone branches are provided for phase-constant fitting.
"""

from __future__ import annotations

import math

__all__ = [
    "complete_K",
    "complete_E",
    "agm_sequence",
    "jacobi",
    "sn",
    "cn",
    "dn",
    "inverse_cn",
    "inverse_dn",
    "sech",
]

# AGM iterations converge quadratically; 2^40-fold error reduction in <= 8
# steps for any k in [0, 1).
_AGM_STOP = 1e-15
_MAX_AGM_ITER = 60


def _check_modulus(k: float) -> float:
    k = float(k)
    if math.isnan(k) or not 0.0 <= k <= 1.0:
        raise ValueError(f"elliptic modulus must satisfy 0 <= k <= 1, got {k}")
    return k


def sech(x: float) -> float:
    """Hyperbolic secant, overflow-safe for large |x|."""
    x = abs(float(x))
    if x > 710.0:  # cosh overflows float64 near 710.5
        return 0.0
    return 1.0 / math.cosh(x)


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k), by the AGM.

    K(0) = pi/2, K is increasing, and K(1) = +inf (returned as math.inf).
    """
    k = _check_modulus(k)
    if k == 1.0:
        return math.inf
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))  # k' without cancellation
    for _ in range(_MAX_AGM_ITER):
        if abs(a - b) <= _AGM_STOP * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def agm_sequence(k: float) -> tuple[float, list[float]]:
    """The AGM of (1, k') for 0 <= k < 1: its limit M and [c_0, c_1, ...].

    c_0 = k and c_{n+1} = (a_n - b_n)/2, computed as c_n^2 / (4 a_{n+1})
    without the cancellation in a_n - b_n; the list runs until c_n
    underflows (DLMF 19.8.1).  K = pi / (2M), 1 - M = sum_{n>=1} c_n, and
    M is also the mean of dn over a period.
    """
    k = _check_modulus(k)
    if k == 1.0:
        raise ValueError("the AGM of (1, k') degenerates at k = 1")
    a, b = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    cs = [k]
    while cs[-1] > 0.0 and len(cs) < _MAX_AGM_ITER:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        cs.append(cs[-1] * cs[-1] / (4.0 * a))
    return a, cs


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, E(k), by the AGM.

    E = K (1 - sum_n 2^(n-1) c_n^2) (DLMF 19.8.6).  E(0) = pi/2, E is
    decreasing, and E(1) = 1.
    """
    k = _check_modulus(k)
    if k == 1.0:
        return 1.0
    mean, cs = agm_sequence(k)
    return math.pi / (2.0 * mean) * (1.0 - sum(2.0 ** (n - 1) * c * c for n, c in enumerate(cs)))


def jacobi(u: float, k: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions (sn(u,k), cn(u,k), dn(u,k)) for real u.

    Uses the descending Landen/AGM phase recursion: run the AGM
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2
    from (1, k', k) until |c_N| <= 1e-15 a_N, seed the phase
    phi_N = 2^N a_N u and recover phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n))/2.
    Then sn = sin phi_0, cn = cos phi_0, dn = sqrt(k'^2 + k^2 cn^2).

    u is reduced modulo the real period 4K first so large arguments do not
    lose accuracy in the phase seed.
    """
    k = _check_modulus(k)
    u = float(u)
    if k == 0.0:
        return math.sin(u), math.cos(u), 1.0
    if k == 1.0:
        s = sech(u)
        return math.tanh(u), s, s

    bigK = complete_K(k)
    period = 4.0 * bigK
    u = u - period * math.floor(u / period + 0.5)  # now |u| <= 2K

    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a, b, c = 1.0, kp, k
    a_seq = [a]
    c_seq = [c]
    n = 0
    while abs(c) > _AGM_STOP * a and n < _MAX_AGM_ITER:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        a_seq.append(a)
        c_seq.append(c)
        n += 1

    phi = (2.0**n) * a_seq[n] * u
    for m in range(n, 0, -1):
        ratio = c_seq[m] / a_seq[m]
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, ratio * math.sin(phi)))))

    sn_v = math.sin(phi)
    cn_v = math.cos(phi)
    dn_v = math.sqrt(kp * kp + (k * cn_v) * (k * cn_v))
    return sn_v, cn_v, dn_v


def sn(u: float, k: float) -> float:
    return jacobi(u, k)[0]


def cn(u: float, k: float) -> float:
    return jacobi(u, k)[1]


def dn(u: float, k: float) -> float:
    return jacobi(u, k)[2]


def _invert_decreasing(f, lo: float, hi: float, target: float, dfdu) -> float:
    """Solve f(u) = target for f strictly decreasing on [lo, hi].

    Bisection bracket plus Newton polish; falls back to bisection whenever a
    Newton step leaves the bracket.  Accurate to ~1e-14 relative.
    """
    flo = f(lo) - target
    fhi = f(hi) - target
    if flo < 0.0:
        return lo
    if fhi > 0.0:
        return hi
    u = 0.5 * (lo + hi)
    for _ in range(200):
        fu = f(u) - target
        if fu > 0.0:
            lo = u
        else:
            hi = u
        du = dfdu(u)
        if du != 0.0:
            step = u - fu / du
            u_new = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            u_new = 0.5 * (lo + hi)
        if abs(u_new - u) <= 1e-15 * max(1.0, abs(u)):
            return u_new
        u = u_new
        if hi - lo <= 1e-16 * max(1.0, abs(u)):
            break
    return u


def inverse_cn(x: float, k: float) -> float:
    """Principal inverse of cn: returns u in [0, 2K] with cn(u, k) = x.

    cn is strictly decreasing from 1 to -1 on [0, 2K], so the inverse is
    defined for x in [-1, 1].  inverse_cn(0, k) = K(k), inverse_cn(1, k) = 0.
    """
    k = _check_modulus(k)
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"inverse_cn argument must lie in [-1, 1], got {x}")
    if k == 1.0:
        # cn = sech never reaches values <= 0 at finite u
        if x <= 0.0:
            raise ValueError("inverse_cn(x, 1) requires x > 0 (cn = sech > 0)")
        return math.acosh(1.0 / x) if x < 1.0 else 0.0
    if x == 1.0:
        return 0.0
    bigK = complete_K(k)
    if x == -1.0:
        return 2.0 * bigK

    def f(u: float) -> float:
        return jacobi(u, k)[1]

    def df(u: float) -> float:
        s, _, d = jacobi(u, k)
        return -s * d

    return _invert_decreasing(f, 0.0, 2.0 * bigK, x, df)


def inverse_dn(x: float, k: float) -> float:
    """Principal inverse of dn: returns u in [0, K] with dn(u, k) = x.

    dn decreases from 1 to k' = sqrt(1 - k^2) on [0, K], so x must lie in
    [k', 1].  For k = 1, dn = sech and the inverse is arcsech(x) for x in (0, 1].
    """
    k = _check_modulus(k)
    x = float(x)
    if k == 1.0:
        if not 0.0 < x <= 1.0:
            raise ValueError(f"inverse_dn(x, 1) requires 0 < x <= 1, got {x}")
        return math.acosh(1.0 / x) if x < 1.0 else 0.0
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    if not kp - 1e-12 <= x <= 1.0 + 1e-15:
        raise ValueError(f"inverse_dn argument must lie in [k', 1] = [{kp}, 1], got {x}")
    if x >= 1.0:
        return 0.0
    bigK = complete_K(k)
    if x <= kp:
        return bigK

    def f(u: float) -> float:
        return jacobi(u, k)[2]

    def df(u: float) -> float:
        s, c, _ = jacobi(u, k)
        return -k * k * s * c

    return _invert_decreasing(f, 0.0, bigK, x, df)
