"""Jacobi elliptic functions, the Jacobi zeta function and the elliptic integral
of the first kind, all from one AGM table per modulus.

Everything here uses the modulus convention k (not the parameter m = k^2):

    K(k)          = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)
    F(phi, k)     = integral_0^phi dtheta / sqrt(1 - k^2 sin^2 theta)
    sn, cn, dn    = Jacobi functions with sn^2 + cn^2 = 1, dn^2 + k^2 sn^2 = 1
    Z(u, k)       = E(am u, k) - (E/K) u, the Jacobi zeta function

One run of the arithmetic-geometric mean of (1, k') gives the table of a
modulus (_descent_table): K = pi/(2M) from its limit M, the c_n that the
H3 solver's period means are written in, and the ratios of the Landen
recursion in both directions.  Descending from phi_N = 2^N a_N u it gives
sn, cn, dn and the zeta function in one pass, elementwise on arrays
(_jacobi_zeta); ascending from an amplitude phi it gives F(phi, k)
(_elliptic_f), which pins phases: the inverses of cn and dn on their
principal monotone branches are values of F.  Each step doubles the number
of correct digits, and all are accurate to a few ulp for 0 <= k < 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["complete_K", "jacobi", "cn", "inverse_cn", "inverse_dn", "sech"]

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


class _DescentTable(NamedTuple):
    """What the Landen recursions and the H3 period means need of a modulus
    0 <= k < 1, from one AGM run of (1, k') that stops at the first
    c_N <= 1e-15 a_N with N >= 1 (DLMF 19.8.1); the next c_{N+1} = c_N^2 /
    (4 a_{N+1}) is below 3e-31 a_N, so a_N is the limit M to rounding.  A
    modulus k <= 1e-15 takes one step too: 1 - M = c_1 = k^2 / (4 a_1), which
    the H3 means multiply by |z0| ~ 1/k, so it may not read 0.

    ratios holds c_n / a_n and cs holds c_n for n = N, ..., 1, the order in
    which the descending phases are recovered; b_ratios holds b_n / a_n for
    n = 0, ..., N - 1, the ascending order.  seed = 2^N a_N, mean = M,
    big_k = K = pi/(2M) (so that 4K = 2 pi / M exactly) and
    c_seq = (c_0, ..., c_N), with 1 - M = sum_{n>=1} c_n.
    """

    k: float
    kp: float
    ratios: tuple[float, ...]
    cs: np.ndarray
    seed: float
    b_ratios: tuple[float, ...]
    big_k: float
    mean: float
    c_seq: tuple[float, ...]


def _descent_table(k: float, kp: float | None = None) -> _DescentTable:
    """The table of 0 <= k < 1.  c_0 = k and c_{n+1} = (a_n - b_n)/2 is
    computed as c_n^2 / (4 a_{n+1}), without the cancellation in a_n - b_n.
    kp = k' = sqrt(1 - k^2) defaults to sqrt((1 - k)(1 + k)); a caller that
    knows k' to more digits than that near k = 1 passes it."""
    a, c = 1.0, k
    b = math.sqrt((1.0 - k) * (1.0 + k)) if kp is None else kp
    a_seq, b_seq, c_seq = [a], [b], [c]
    for _ in range(_MAX_AGM_ITER):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = c * c / (4.0 * a)
        a_seq.append(a)
        b_seq.append(b)
        c_seq.append(c)
        if c <= _AGM_STOP * a:
            break
    ratios = tuple([c / a for a, c in zip(a_seq[:0:-1], c_seq[:0:-1])])
    b_ratios = tuple([b / a for a, b in zip(a_seq, b_seq[:-1])])
    return _DescentTable(k, b_seq[0], ratios, np.array(c_seq[:0:-1]), 2.0 ** len(ratios) * a, b_ratios,
                         math.pi / (2.0 * a), a, tuple(c_seq))


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
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    period = 4.0 * table.big_k
    phi = (flat - period * np.rint(flat / period)) * table.seed  # within 2K of 0
    sines = np.empty((len(table.ratios), flat.size))
    arg = np.empty_like(phi)
    for sine, ratio in zip(sines, table.ratios):
        np.sin(phi, out=sine)
        np.multiply(sine, ratio, out=arg)
        phi += np.arcsin(arg, out=arg)
        phi *= 0.5
    sn_v, cn_v = np.sin(phi), np.cos(phi)
    dn_v = table.k * cn_v
    out = sn_v, cn_v, np.sqrt(table.kp * table.kp + dn_v * dn_v), table.cs @ sines
    return out if u.ndim == 1 else tuple(x.reshape(u.shape) for x in out)


def _elliptic_f(y: float, x: float, table: _DescentTable) -> float:
    """F(phi, k) for the table's modulus at the amplitude phi = atan2(y, x) in
    [-pi, pi]; F(phi + 2 pi m) = F(phi) + 4 m K extends it to any real phi.

    The ascending recursion tan(phi_{n+1} - phi_n) = (b_n/a_n) tan phi_n from
    phi_0 = phi gives F = phi_N / (2^N a_N) (A&S 17.5-17.6), on the branch
    phi_{n+1} ~ 2 phi_n.  Each phase is kept as j pi + theta, |theta| <= pi/2,
    with theta as the unit vector (sin, cos): with rho = b_n/a_n,
    tan phi_{n+1} = (1 + rho) tan theta / (1 - rho tan^2 theta), and j
    doubles, plus a carry of +-1 when the new cosine is negative.  So no
    angle is rounded before the end, and where a step is steep (theta near
    +-pi/2 while k' is small) theta is still known to a few ulp of its
    distance from +-pi/2; callers pass (y, x) = (sn, cn) up to a common
    factor.
    """
    r = math.hypot(y, x)
    j, s, c = 0, y / r, x / r
    for rho in table.b_ratios:
        if c < 0.0:  # theta past +-pi/2: carry a pi into j
            j, s, c = j + int(math.copysign(1.0, s)), -s, -c
        # s keeps its sign through c = +0, so the carry above sees it
        s, c = (1.0 + rho) * s * c, c * c - rho * s * s
        r = math.hypot(s, c)
        j, s, c = 2 * j, s / r, c / r
    return (math.pi * j + math.atan2(s, c)) / table.seed


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi/(2M).

    K(0) = pi/2, K is increasing, and K(1) = +inf (returned as math.inf).
    """
    k = _check_modulus(k)
    return math.inf if k == 1.0 else _descent_table(k).big_k


def jacobi(u: float, k: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions (sn(u,k), cn(u,k), dn(u,k)) for real u.

    Uses the descending Landen recursion of _jacobi_zeta on the table of k:
    u is reduced modulo the real period 4K = 2 pi / a_N read off the same
    AGM (so large arguments keep their accuracy in the phase seed).  k = 0
    and k = 1 give the circular and hyperbolic functions directly.
    """
    k = _check_modulus(k)
    u = float(u)
    if k == 0.0:
        return math.sin(u), math.cos(u), 1.0
    if k == 1.0:
        s = float(sech(u))
        return math.tanh(u), s, s
    return tuple(float(x) for x in _jacobi_zeta(u, _descent_table(k))[:3])


def cn(u: float, k: float) -> float:
    return jacobi(u, k)[1]


def _arcsech(x: float) -> float:
    """The u >= 0 with sech u = x for 0 < x <= 1: F(arccos x, 1) = asinh(tan arccos x)."""
    return math.asinh(math.sqrt((1.0 - x) * (1.0 + x)) / x)


def inverse_cn(x: float, k: float) -> float:
    """Principal inverse of cn: returns u in [0, 2K] with cn(u, k) = x.

    cn is strictly decreasing from 1 to -1 on [0, 2K], so the inverse is
    defined for x in [-1, 1]: u = F(arccos x, k).  inverse_cn(0, k) = K(k),
    inverse_cn(1, k) = 0.  For k = 1, cn = sech and x must be positive.
    """
    k = _check_modulus(k)
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"inverse_cn argument must lie in [-1, 1], got {x}")
    if k == 1.0:
        if x <= 0.0:
            raise ValueError("inverse_cn(x, 1) requires x > 0 (cn = sech > 0)")
        return _arcsech(x)
    return _elliptic_f(math.sqrt((1.0 - x) * (1.0 + x)), x, _descent_table(k))


def inverse_dn(x: float, k: float) -> float:
    """Principal inverse of dn: returns u in [0, K] with dn(u, k) = x.

    dn decreases from 1 to k' = sqrt(1 - k^2) on [0, K], so x must lie in
    [k', 1]; u = F(phi, k) with the amplitude phi = atan2(k sn, k cn),
    k sn = sqrt(1 - x^2) and k cn = sqrt(x^2 - k'^2).  For k = 1, dn = sech
    and the inverse is arcsech(x) for x in (0, 1].
    """
    k = _check_modulus(k)
    x = float(x)
    if k == 1.0:
        if not 0.0 < x <= 1.0:
            raise ValueError(f"inverse_dn(x, 1) requires 0 < x <= 1, got {x}")
        return _arcsech(x)
    table = _descent_table(k)
    kp = table.kp
    if not kp - 1e-12 <= x <= 1.0 + 1e-15:
        raise ValueError(f"inverse_dn argument must lie in [k', 1] = [{kp}, 1], got {x}")
    if x >= 1.0:
        return 0.0
    if x <= kp + 4.0 * math.ulp(kp):  # within rounding of k', where the inverse is no better known
        return table.big_k
    ksn2 = (1.0 - x) * (1.0 + x)
    # x^2 - k'^2 from the smaller of k^2 and k'^2, so its rounding is the smaller one
    kcn2 = (x - kp) * (x + kp) if k > kp else k * k - ksn2
    return _elliptic_f(math.sqrt(ksn2), math.sqrt(kcn2), table)
