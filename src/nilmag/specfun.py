"""Jacobi elliptic functions and the complete and incomplete elliptic integrals.

Everything here uses the modulus convention k (not the parameter m = k^2):

    K(k)          = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)
    E(k)          = integral_0^{pi/2} sqrt(1 - k^2 sin^2 theta) dtheta
    F(phi, k)     = integral_0^phi dtheta / sqrt(1 - k^2 sin^2 theta)
    sn, cn, dn    = Jacobi functions with sn^2 + cn^2 = 1, dn^2 + k^2 sn^2 = 1

K and E are computed by the arithmetic-geometric mean, sn/cn/dn by a descending
Landen transformation (AGM phase recursion), F(phi, k) from Carlson's
symmetric integral R_F by duplication (Carlson 1995, Numer. Algorithms 10;
DLMF 19.36); R_D, by the same duplication, gives the H3 solver its Jacobi
zeta function.  Each AGM and Landen step doubles the number of correct
digits and each duplication step shrinks the argument spread fourfold; all
are accurate to ~1e-14 away from k = 1.  The inverses of cn and dn on their
principal monotone branches, used to pin phases, are values of F.
"""

from __future__ import annotations

import math

__all__ = [
    "complete_K",
    "complete_E",
    "agm_sequence",
    "landen",
    "jacobi",
    "sn",
    "cn",
    "dn",
    "carlson_rf",
    "carlson_rd",
    "incomplete_F",
    "inverse_cn",
    "inverse_dn",
    "sech",
]

# each AGM iteration squares the relative gap; 2^40-fold error reduction in <= 8
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
    """Complete elliptic integral of the first kind, K(k) (landen).

    K(0) = pi/2, K is increasing, and K(1) = +inf (returned as math.inf).
    """
    k = _check_modulus(k)
    if k == 1.0:
        return math.inf
    return landen(k)[0]


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


def landen(k: float) -> tuple[float, float, float, list[float]]:
    """(K, M, 1 - E/K, [c_0, c_1, ...]) from the AGM of (1, k') for 0 <= k < 1.

    K = pi / (2M) and 1 - E/K = sum_{n>=0} 2^(n-1) c_n^2 (DLMF 19.8.6), a sum
    of positive terms that keeps its relative accuracy as k -> 0.
    """
    mean, cs = agm_sequence(k)
    one_minus_ek = math.fsum(2.0 ** (n - 1) * c * c for n, c in enumerate(cs))
    return math.pi / (2.0 * mean), mean, one_minus_ek, cs


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, E(k) = K (1 - (1 - E/K))
    (landen).  E(0) = pi/2, E is decreasing, and E(1) = 1.
    """
    k = _check_modulus(k)
    if k == 1.0:
        return 1.0
    big_k, _, one_minus_ek, _ = landen(k)
    return big_k * (1.0 - one_minus_ek)


def jacobi(u: float, k: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions (sn(u,k), cn(u,k), dn(u,k)) for real u.

    Uses the descending Landen/AGM phase recursion: run the AGM
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2
    from (1, k', k) until |c_N| <= 1e-15 a_N, seed the phase
    phi_N = 2^N a_N u and recover phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n))/2.
    Then sn = sin phi_0, cn = cos phi_0, dn = sqrt(k'^2 + k^2 cn^2).

    u is reduced modulo the real period 4K = 2 pi / a_N, read off the same
    AGM, so large arguments do not lose accuracy in the phase seed.
    """
    k = _check_modulus(k)
    u = float(u)
    if k == 0.0:
        return math.sin(u), math.cos(u), 1.0
    if k == 1.0:
        s = sech(u)
        return math.tanh(u), s, s

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

    period = 2.0 * math.pi / a  # 4K
    u = u - period * math.floor(u / period + 0.5)  # now |u| <= 2K

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


# Carlson's duplication stops once the arguments agree to this relative size;
# the truncated series is then exact to about _CARLSON_R (Carlson 1995).
_CARLSON_R = 1e-16


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z) for x, y, z >= 0, at most one 0.

    R_F = (1/2) integral_0^inf dt / sqrt((t + x)(t + y)(t + z)), computed by
    the duplication theorem and a fifth-order series (DLMF 19.36.1).
    """
    a = (x + y + z) / 3.0
    dx, dy = a - x, a - y
    q = (3.0 * _CARLSON_R) ** (-1.0 / 6.0) * max(abs(dx), abs(dy), abs(a - z))
    scale = 1.0
    while q * scale >= abs(a):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    X, Y = dx * scale / a, dy * scale / a
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's R_D(x, y, z) = R_J(x, y, z, z) for x, y >= 0 (not both 0), z > 0.

    R_D = (3/2) integral_0^inf dt / ((t + z) sqrt((t + x)(t + y)(t + z))),
    by duplication and a seventh-order series (DLMF 19.36.2).
    """
    a = (x + y + 3.0 * z) / 5.0
    dx, dy = a - x, a - y
    q = (0.25 * _CARLSON_R) ** (-1.0 / 6.0) * max(abs(dx), abs(dy), abs(a - z))
    scale, tail = 1.0, 0.0
    while q * scale >= abs(a):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        tail += scale / (sz * (z + lam))
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    X, Y = dx * scale / a, dy * scale / a
    Z = -(X + Y) / 3.0
    xy, z2 = X * Y, Z * Z
    e2 = xy - 6.0 * z2
    e3 = (3.0 * xy - 8.0 * z2) * Z
    e4 = 3.0 * (xy - z2) * z2
    e5 = xy * z2 * Z
    series = 1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
    series = series - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
    return scale * series / (a * math.sqrt(a)) + 3.0 * tail


def _legendre_reduce(phi: float, k: float) -> tuple[int, float, float, float]:
    """phi = n pi + r with |r| <= pi/2; returns (n, sin r, cos r, Delta(r)^2)."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"amplitude must be finite, got {phi}")
    n = round(phi / math.pi)
    r = phi - n * math.pi
    s, c = math.sin(r), math.cos(r)
    return n, s, c, c * c + (1.0 - k) * (1.0 + k) * s * s


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, k), any real phi.

    F = sin r R_F(cos^2 r, Delta^2, 1) on |r| <= pi/2 (DLMF 19.25.5), with
    Delta^2 = 1 - k^2 sin^2 r written as cos^2 r + k'^2 sin^2 r, and
    F(n pi + r) = 2 n K + F(r).  F(phi, 0) = phi; F(phi, 1) is infinite once
    |phi| >= pi/2.
    """
    k = _check_modulus(k)
    n, s, c, d2 = _legendre_reduce(phi, k)
    f = s * carlson_rf(c * c, d2, 1.0)
    return f + 2.0 * n * complete_K(k) if n else f


def inverse_cn(x: float, k: float) -> float:
    """Principal inverse of cn: returns u in [0, 2K] with cn(u, k) = x.

    cn is strictly decreasing from 1 to -1 on [0, 2K], so the inverse is
    defined for x in [-1, 1]: u = F(arccos x, k).  inverse_cn(0, k) = K(k),
    inverse_cn(1, k) = 0.
    """
    k = _check_modulus(k)
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"inverse_cn argument must lie in [-1, 1], got {x}")
    if k == 1.0 and x <= 0.0:
        raise ValueError("inverse_cn(x, 1) requires x > 0 (cn = sech > 0)")
    return incomplete_F(math.acos(x), k)


def inverse_dn(x: float, k: float) -> float:
    """Principal inverse of dn: returns u in [0, K] with dn(u, k) = x.

    dn decreases from 1 to k' = sqrt(1 - k^2) on [0, K], so x must lie in
    [k', 1]; u = F(arcsin(sqrt(1 - x^2) / k), k).  For k = 1, dn = sech and
    the inverse is arcsech(x) for x in (0, 1].
    """
    k = _check_modulus(k)
    x = float(x)
    if k == 1.0:
        if not 0.0 < x <= 1.0:
            raise ValueError(f"inverse_dn(x, 1) requires 0 < x <= 1, got {x}")
        return math.acosh(1.0 / x)
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    if not kp - 1e-12 <= x <= 1.0 + 1e-15:
        raise ValueError(f"inverse_dn argument must lie in [k', 1] = [{kp}, 1], got {x}")
    if x >= 1.0:
        return 0.0
    if x <= kp:
        return complete_K(k)
    return incomplete_F(math.asin(min(1.0, math.sqrt((1.0 - x) * (1.0 + x)) / k)), k)
