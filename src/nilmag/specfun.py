"""Jacobi elliptic functions and the complete and incomplete elliptic integrals.

Everything here uses the modulus convention k (not the parameter m = k^2):

    K(k)          = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)
    E(k)          = integral_0^{pi/2} sqrt(1 - k^2 sin^2 theta) dtheta
    F(phi, k)     = integral_0^phi dtheta / sqrt(1 - k^2 sin^2 theta)
    sn, cn, dn    = Jacobi functions with sn^2 + cn^2 = 1, dn^2 + k^2 sn^2 = 1
    Z(u, k)       = E(am u, k) - (E/K) u, the Jacobi zeta function

K and E are computed by the arithmetic-geometric mean, sn/cn/dn by a descending
Landen transformation (AGM phase recursion, elementwise on arrays), F(phi, k)
from Carlson's symmetric integral R_F by duplication (Carlson 1995, Numer.
Algorithms 10; DLMF 19.36).  The phases of the Landen recursion also sum to the Jacobi
zeta function, which the H3 solver takes from the same pass as sn, cn and
dn.  Each AGM and Landen step doubles the number of correct digits and each
duplication step shrinks the argument spread fourfold; all are accurate to
~1e-14 away from k = 1.  The inverses of cn and dn on their principal
monotone branches, used to pin phases, are values of F.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

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


def sech(x):
    """Hyperbolic secant, elementwise on arrays; where cosh overflows
    (|x| > 710.5) it is inf and the secant 0, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(x)


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) (landen).

    K(0) = pi/2, K is increasing, and K(1) = +inf (returned as math.inf).
    """
    k = _check_modulus(k)
    if k == 1.0:
        return math.inf
    return landen(k)[0]


def _agm(k: float) -> tuple[list[float], list[float]]:
    """The AGM of (1, k') for 0 <= k < 1 as lists [a_0, ..., a_N], [c_0, ..., c_N].

    c_0 = k and c_{n+1} = (a_n - b_n)/2 is computed as c_n^2 / (4 a_{n+1}),
    without the cancellation in a_n - b_n; the run stops when c_N underflows.
    """
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    a_seq, c_seq = [a], [c]
    for _ in range(_MAX_AGM_ITER - 1):
        if c <= 0.0:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = c * c / (4.0 * a)
        a_seq.append(a)
        c_seq.append(c)
    return a_seq, c_seq


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
    a_seq, cs = _agm(k)
    return a_seq[-1], cs


def landen(k: float) -> tuple[float, float, float, list[float]]:
    """(K, M, 1 - E/K, [c_0, c_1, ...]) from the AGM of (1, k') for 0 <= k < 1.

    K = pi / (2M) and 1 - E/K = sum_{n>=0} 2^(n-1) c_n^2 (DLMF 19.8.6), a sum
    of positive terms that keeps its relative accuracy as k -> 0.
    """
    return _landen_from(*agm_sequence(k))


def _landen_from(mean: float, cs: list[float]) -> tuple[float, float, float, list[float]]:
    """landen's tuple from the AGM limit M and [c_0, c_1, ...] of agm_sequence."""
    one_minus_ek = math.fsum(2.0 ** (n - 1) * c * c for n, c in enumerate(cs))
    return math.pi / (2.0 * mean), mean, one_minus_ek, cs


class _DescentTable(NamedTuple):
    """What the descending Landen recursion needs of a modulus 0 <= k < 1.

    ratios holds c_n / a_n and cs holds c_n for n = N, ..., 1, the order in
    which the phases are recovered, with N the first index where
    c_N <= 1e-15 a_N; period = 4K = 2 pi / a_N and seed = 2^N a_N.
    """

    k: float
    kp: float
    ratios: tuple[float, ...]
    cs: np.ndarray
    period: float
    seed: float


def _descent_table(k: float, agm: tuple[list[float], list[float]] | None = None) -> _DescentTable:
    """The table of k from the run agm = _agm(k) (made here if not given), cut at
    the first c_N <= 1e-15 a_N."""
    a_seq, c_seq = _agm(k) if agm is None else agm
    n = next((i for i, (a, c) in enumerate(zip(a_seq, c_seq)) if c <= _AGM_STOP * a), len(a_seq) - 1)
    ratios = tuple([c / a for a, c in zip(a_seq[n:0:-1], c_seq[n:0:-1])])
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    return _DescentTable(k, kp, ratios, np.array(c_seq[n:0:-1]), 2.0 * math.pi / a_seq[n], (2.0**n) * a_seq[n])


def _jacobi_zeta(u, table: _DescentTable):
    """(sn, cn, dn, Z) at u, elementwise on an array u, for the modulus of
    table, Z the Jacobi zeta function.

    u is reduced modulo the period 4K, the phase seeded as phi_N = 2^N a_N u,
    and phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n))/2 recovered down to
    the amplitude phi_0 (A&S 16.4, DLMF 22.20(ii)); then sn = sin phi_0,
    cn = cos phi_0 and dn = sqrt(k'^2 + k^2 cn^2).  The same phases give
    Z = sum_{n>=1} c_n sin phi_n (A&S 17.6), one dot product with the sines
    kept from the steps.  Each step is a few ufuncs over the whole array, so
    a grid costs one pass, and a float u gives 0-d results.  c_n < a_n for
    n >= 1, so the asin argument needs no clamp.
    """
    k, kp, ratios, cs, period, seed = table
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    phi = (flat - period * np.rint(flat / period)) * seed  # the reduced u is within 2K of 0
    sines = np.empty((len(ratios), flat.size))
    arg = np.empty_like(phi)
    for sine, ratio in zip(sines, ratios):
        np.sin(phi, out=sine)
        np.multiply(sine, ratio, out=arg)
        phi += np.arcsin(arg, out=arg)
        phi *= 0.5
    sn_v, cn_v = np.sin(phi), np.cos(phi)
    dn_v = k * cn_v
    out = sn_v, cn_v, np.sqrt(kp * kp + dn_v * dn_v), cs @ sines
    return out if u.ndim == 1 else tuple(x.reshape(u.shape) for x in out)


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

    Uses the descending Landen/AGM phase recursion of _jacobi_zeta: the AGM
    of (1, k') runs until c_N <= 1e-15 a_N, u is reduced modulo the real
    period 4K = 2 pi / a_N read off the same AGM (so large arguments keep
    their accuracy in the phase seed), and the phases descend from
    phi_N = 2^N a_N u to the amplitude phi_0.  k = 0 and k = 1 give the
    circular and hyperbolic functions directly.
    """
    k = _check_modulus(k)
    u = float(u)
    if k == 0.0:
        return math.sin(u), math.cos(u), 1.0
    if k == 1.0:
        s = float(sech(u))
        return math.tanh(u), s, s
    return tuple(float(x) for x in _jacobi_zeta(u, _descent_table(k))[:3])


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
