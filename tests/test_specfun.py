"""Tests for the elliptic-function module against quadrature oracles."""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from nilmag.specfun import (
    _descent_table,
    _elliptic_f,
    _jacobi_zeta,
    cn,
    complete_K,
    inverse_cn,
    inverse_dn,
    jacobi,
    sech,
)

# the moduli of the table-F and inverse checks, from the circular limit to k' = 1.4e-6
F_MODULI = [0.0, 1e-10, 1e-8, 1e-3, 0.5, 0.99, 1.0 - 1e-12]


def _K_quadrature(k: float) -> float:
    """Independent K(k) by adaptive quadrature of the defining integral."""
    with warnings.catch_warnings():
        # epsabs=1e-14 sits at the roundoff floor; quad warns but delivers
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
            0.0,
            math.pi / 2.0,
            epsabs=1e-14,
            epsrel=1e-14,
            limit=200,
        )
    return val


def _incomplete_F(phi: float, k: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
            0.0,
            phi,
            epsabs=1e-14,
            epsrel=1e-14,
            limit=200,
        )
    return val


def _jacobi_quadrature(u: float, k: float) -> tuple[float, float, float]:
    """Oracle sn/cn/dn: invert u = F(phi, k) for the amplitude phi by brentq."""
    phi = brentq(lambda p: _incomplete_F(p, k) - u, -0.1, math.pi / 2 + 0.1, xtol=1e-14)
    s = math.sin(phi)
    return s, math.cos(phi), math.sqrt(1.0 - (k * s) ** 2)


def test_complete_K_special_values():
    """K(0) = pi/2 exactly; K(1) = +inf; K increases with k."""
    assert abs(complete_K(0.0) - math.pi / 2) <= 1e-15
    assert complete_K(1.0) == math.inf
    ks = np.linspace(0.0, 0.999, 40)
    vals = [complete_K(k) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_complete_K_against_quadrature():
    """AGM value agrees with adaptive quadrature of the defining integral."""
    for k in [0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999]:
        assert abs(complete_K(k) - _K_quadrature(k)) <= 1e-12, f"k={k}"


def test_table_gives_K_and_the_mean_of_dn():
    """The table's AGM limit M = pi/(2K) and 1 - M = sum_{n>=1} c_n (the dn
    branch's period mean) against 40-digit mpmath, with big_k bit for bit
    equal to complete_K, and M is the mean of dn over [0, 2K]."""
    for k in [1e-6, 1e-3, 0.3, 0.75, 0.99, 1.0 - 1e-12]:
        table = _descent_table(k)
        assert table.big_k == complete_K(k) == math.pi / (2.0 * table.mean)
        assert table.c_seq[0] == k and table.kp == math.sqrt((1.0 - k) * (1.0 + k))
        with mpmath.workdps(40):
            big_k = mpmath.ellipk(mpmath.mpf(k) ** 2)
            want_mean, want_gap = float(mpmath.pi / (2 * big_k)), float(1 - mpmath.pi / (2 * big_k))
        assert abs(table.mean - want_mean) <= 4e-16 * want_mean, k
        assert abs(math.fsum(table.c_seq[1:]) - want_gap) <= 4e-15 * want_gap, k
        if k < 0.999:
            avg, _ = quad(lambda u: jacobi(u, k)[2], 0.0, 2.0 * table.big_k, epsabs=1e-13, epsrel=1e-13)
            assert abs(avg / (2.0 * table.big_k) - table.mean) <= 1e-13, f"k={k}"


def test_table_c_sums_give_one_minus_E_over_K():
    """1 - E/K = sum_{n>=0} 2^(n-1) c_n^2 (DLMF 19.8.6; the cn branch's
    <cn^2> = 1/2 - sum_{n>=1} 2^(n-1) c_n^2 / k^2) against 40-digit mpmath,
    and E = K (1 - that sum) against quadrature of the definition."""
    for k in [1e-6, 0.05, 0.3, 0.5, 0.75, 0.95, 0.99, 0.999, 1.0 - 1e-12]:
        table = _descent_table(k)
        one_minus_ek = math.fsum(2.0 ** (n - 1) * c * c for n, c in enumerate(table.c_seq))
        with mpmath.workdps(40):
            m = mpmath.mpf(k) ** 2
            want = float(1 - mpmath.ellipe(m) / mpmath.ellipk(m))
        assert abs(one_minus_ek - want) <= 4e-15 * want, k
        if 0.01 < k < 0.9999:
            with warnings.catch_warnings():
                # epsabs=1e-14 sits at the roundoff floor; quad warns but delivers
                warnings.simplefilter("ignore", IntegrationWarning)
                big_e, _ = quad(lambda th: math.sqrt(1.0 - (k * math.sin(th)) ** 2), 0.0, math.pi / 2,
                                epsabs=1e-14, epsrel=1e-14, limit=200)
            assert abs(table.big_k * (1.0 - one_minus_ek) - big_e) <= 1e-13, f"k={k}"


def test_table_is_one_agm_run():
    """The descending ratios, the ascending ratios and the c_n list come from
    one AGM run, cut at the first c_N <= 1e-15 a_N, and 4K is the period
    2 pi / a_N that the descent reduces by."""
    for k in [0.0, 1e-300, 1e-10, 0.5, 1.0 - 2.0**-53]:
        table = _descent_table(k)
        n = len(table.ratios)
        assert len(table.b_ratios) == len(table.cs) == len(table.c_seq) - 1 == n
        assert table.c_seq[-1] <= 1e-15 * table.mean and all(c > 1e-15 * table.mean for c in table.c_seq[:-1])
        assert all(0.0 < rho <= 1.0 for rho in table.b_ratios)
        assert table.seed == 2.0**n * table.mean and 4.0 * table.big_k == 2.0 * math.pi / table.mean
    assert _descent_table(0.0).b_ratios == () and _descent_table(0.0).seed == 1.0


def test_modulus_domain_errors():
    for bad in [-0.1, 1.0000001, 2.0, math.nan]:
        with pytest.raises(ValueError):
            complete_K(bad)
        with pytest.raises(ValueError):
            jacobi(0.3, bad)
        with pytest.raises(ValueError):
            inverse_cn(0.3, bad)
        with pytest.raises(ValueError):
            inverse_dn(0.9, bad)


def test_jacobi_against_quadrature():
    """sn/cn/dn match inversion of the incomplete integral on [0, K)."""
    for k in [0.3, 0.7, 0.95]:
        bigK = complete_K(k)
        for frac in [0.05, 0.2, 0.45, 0.7, 0.9]:
            u = frac * bigK
            got = jacobi(u, k)
            want = _jacobi_quadrature(u, k)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12, f"k={k} u={u}"


def test_jacobi_closed_forms_at_modulus_ends():
    """k = 0 gives circular functions, k = 1 hyperbolic ones."""
    for u in np.linspace(-6.0, 6.0, 25):
        s0, c0, d0 = jacobi(u, 0.0)
        assert abs(s0 - math.sin(u)) <= 1e-13
        assert abs(c0 - math.cos(u)) <= 1e-13
        assert d0 == 1.0
        s1, c1, d1 = jacobi(u, 1.0)
        assert abs(s1 - math.tanh(u)) <= 1e-13
        assert abs(c1 - sech(u)) <= 1e-13
        assert abs(d1 - sech(u)) <= 1e-13


def test_jacobi_pythagorean_identities():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.uniform(0.0, 0.999)
        u = rng.uniform(-30.0, 30.0)
        s, c, d = jacobi(u, k)
        assert abs(s * s + c * c - 1.0) <= 1e-14
        assert abs(d * d + (k * s) ** 2 - 1.0) <= 5e-14


def test_jacobi_parity_and_periodicity():
    for k in [0.2, 0.6, 0.9]:
        bigK = complete_K(k)
        for u in np.linspace(0.1, 1.9 * bigK, 9):
            s, c, d = jacobi(u, k)
            sm, cm, dm = jacobi(-u, k)
            assert abs(s + sm) <= 1e-13  # sn odd
            assert abs(c - cm) <= 1e-13  # cn even
            assert abs(d - dm) <= 1e-13  # dn even
            s4, c4, d4 = jacobi(u + 4 * bigK, k)
            assert abs(s - s4) <= 1e-12
            assert abs(c - c4) <= 1e-12
            assert abs(d - d4) <= 1e-12
            # half-period reflection: cn(u + 2K) = -cn(u), dn(u + 2K) = dn(u)
            s2, c2, d2 = jacobi(u + 2 * bigK, k)
            assert abs(c + c2) <= 1e-12
            assert abs(d - d2) <= 1e-12
            assert abs(s + s2) <= 1e-12


def test_jacobi_quarter_period_values():
    """cn(K, k) = 0 and dn(K, k) = k' at the quarter period."""
    for k in [0.1, 0.5, 0.9]:
        bigK = complete_K(k)
        s, c, d = jacobi(bigK, k)
        assert abs(c) <= 1e-12
        assert abs(s - 1.0) <= 1e-12
        assert abs(d - math.sqrt(1 - k * k)) <= 1e-12


def test_jacobi_derivatives_by_central_difference():
    """sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn."""
    h = 1e-5
    for k in [0.35, 0.8]:
        for u in np.linspace(-2.0, 2.0, 11):
            sp, cp, dp = ((a - b) / (2 * h) for a, b in zip(jacobi(u + h, k), jacobi(u - h, k)))
            s, c, d = jacobi(u, k)
            assert abs(sp - c * d) <= 1e-9
            assert abs(cp + s * d) <= 1e-9
            assert abs(dp + k * k * s * c) <= 1e-9


def _f_table(phi: float, table) -> float:
    """F(phi, k) for any real phi from the table's principal F, by F(phi + 2 pi m) = F(phi) + 4 m K."""
    s, c = math.sin(phi), math.cos(phi)
    turns = round((phi - math.atan2(s, c)) / (2.0 * math.pi))
    return _elliptic_f(s, c, table) + 4.0 * turns * table.big_k


@pytest.mark.parametrize("k", F_MODULI)
def test_incomplete_integrals_against_mpmath(k):
    """F(phi, k) by the ascending recursion on the table matches 40-digit
    mpmath to 5e-15 max(1, |F|) for phi in [-3 pi, 3 pi]: a uniform grid,
    and amplitudes within 1e-16 to 1e-1 of the odd multiples of pi/2,
    where F is steepest (slope 1/k' = 7e5 at k = 1 - 1e-12)."""
    table = _descent_table(k)
    phis = [0.0, 1e-300, 1e-9, *np.linspace(-3.0 * math.pi, 3.0 * math.pi, 61)]
    for j in range(-3, 3):
        for d in np.logspace(-16, -1, 16):
            phis += [(j + 0.5) * math.pi + d, (j + 0.5) * math.pi - d]
    with mpmath.workdps(40):
        m = mpmath.mpf(k) ** 2
        for phi in phis:
            want = float(mpmath.ellipf(mpmath.mpf(float(phi)), m))
            assert abs(_f_table(float(phi), table) - want) <= 5e-15 * max(1.0, abs(want)), (phi, k)
    assert _elliptic_f(0.0, 1.0, table) == 0.0
    assert abs(_elliptic_f(1.0, 0.0, table) - table.big_k) <= 4e-16 * table.big_k
    assert abs(_elliptic_f(0.0, -1.0, table) - 2.0 * table.big_k) <= 4e-16 * table.big_k
    # odd, and taking its amplitude as an unrounded (sn, cn) pair of any scale
    for y, x in [(0.3, 0.8), (1.0, -1e-9), (2e-300, 1e-300), (5e200, -3e200)]:
        assert _elliptic_f(-y, x, table) == -_elliptic_f(y, x, table)
        with mpmath.workdps(40):
            want = float(mpmath.ellipf(mpmath.atan2(y, x), mpmath.mpf(k) ** 2))
        assert abs(_elliptic_f(y, x, table) - want) <= 5e-15 * max(1.0, want), (y, x, k)


def _inverse_cn_mpmath(x: float, k: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.ellipf(mpmath.acos(mpmath.mpf(x)), mpmath.mpf(k) ** 2))


def _inverse_dn_mpmath(x: float, k: float) -> float:
    """F at the amplitude with k sn = sqrt(1 - x^2), k cn = sqrt(x^2 - k'^2), at 40 digits."""
    with mpmath.workdps(40):
        x, m = mpmath.mpf(x), mpmath.mpf(k) ** 2
        return float(mpmath.ellipf(mpmath.atan2(mpmath.sqrt(1 - x * x), mpmath.sqrt(x * x - (1 - m))), m))


@pytest.mark.parametrize("k", F_MODULI)
def test_inverse_cn_against_mpmath(k):
    """inverse_cn(x, k) = F(arccos x, k) to 5e-15 max(1, |F|) on [-1, 1],
    both endpoints and their neighbours included: the amplitude goes to F
    as the pair (sqrt(1 - x^2), x), so x near 0 at k' = 1.4e-6 keeps its digits."""
    xs = [-1.0, -1.0 + 2.0**-53, -0.999, -0.5, -1e-9, 0.0, 1e-300, 1e-9, 0.3, 0.999, 1.0 - 2.0**-53, 1.0]
    for x in xs:
        want = _inverse_cn_mpmath(x, k)
        assert abs(inverse_cn(x, k) - want) <= 5e-15 * max(1.0, want), (x, k)


@pytest.mark.parametrize("k", F_MODULI)
def test_inverse_dn_against_mpmath(k):
    """inverse_dn(x, k) to 5e-15 max(1, |F|) at x = dn(f K) for f in [0, 15/16].
    Nearer u = K, x - k' is below the rounding of k' itself, so there the
    inverse is checked by round trip only (test_inverse_dn_round_trip)."""
    with mpmath.workdps(40):
        m = mpmath.mpf(k) ** 2
        xs = [float(mpmath.ellipfun("dn", f * mpmath.ellipk(m), m=m)) for f in np.linspace(0.0, 15 / 16, 16)]
    for x in xs:
        want = _inverse_dn_mpmath(x, k)
        assert abs(inverse_dn(x, k) - want) <= 5e-15 * max(1.0, want), (x, k)


def test_inverse_cn_round_trip():
    for k in [0.0, 0.3, 0.7, 0.95]:
        bigK = complete_K(k)
        assert abs(inverse_cn(0.0, k) - bigK) <= 4e-16 * bigK
        assert inverse_cn(1.0, k) == 0.0
        assert abs(inverse_cn(-1.0, k) - 2 * bigK) <= 4e-16 * bigK
        for u in np.linspace(0.0, 2 * bigK, 17):
            x = cn(u, k)
            assert abs(inverse_cn(x, k) - u) <= 1e-11, f"k={k} u={u}"


def test_inverse_dn_round_trip():
    for k in [0.3, 0.7, 0.95]:
        bigK = complete_K(k)
        kp = math.sqrt(1 - k * k)
        assert inverse_dn(1.0, k) == 0.0
        assert abs(inverse_dn(kp, k) - bigK) <= 1e-11
        for u in np.linspace(0.0, bigK, 17):
            x = jacobi(u, k)[2]
            assert abs(inverse_dn(x, k) - u) <= 1e-11, f"k={k} u={u}"
    assert inverse_dn(1.0, 0.0) == 0.0 and inverse_dn(1.0, 1e-300) == 0.0


def test_inverse_dn_at_unit_modulus():
    """dn(., 1) = cn(., 1) = sech, so both inverses are arcsech, to a few ulp
    of 40-digit mpmath down to x = 1e-300 and up to the endpoint x = 1."""
    for x in [1e-300, 0.2, 0.5, 0.9, 1.0 - 2.0**-53, 1.0]:
        with mpmath.workdps(40):
            want = float(mpmath.asech(mpmath.mpf(x)))
        for inverse in (inverse_cn, inverse_dn):
            assert abs(inverse(x, 1.0) - want) <= 4e-16 * max(1.0, want), (inverse.__name__, x)
        assert abs(sech(inverse_dn(x, 1.0)) - x) <= 1e-13
    with pytest.raises(ValueError):
        inverse_dn(0.0, 1.0)


def test_inverse_domain_errors():
    with pytest.raises(ValueError):
        inverse_cn(1.5, 0.5)
    with pytest.raises(ValueError):
        inverse_cn(-1.5, 0.5)
    with pytest.raises(ValueError):
        inverse_dn(0.1, 0.5)  # below k'
    with pytest.raises(ValueError):
        inverse_cn(-0.5, 1.0)  # sech never negative


def test_large_argument_reduction():
    """Huge arguments keep full accuracy thanks to period reduction."""
    k = 0.6
    bigK = complete_K(k)
    u = 0.37
    big = u + 4 * bigK * 1_000_000
    s_big, c_big, d_big = jacobi(big, k)
    s, c, d = jacobi(u, k)
    # 4K*1e6 is not exactly representable; allow the phase rounding (~1e-10)
    assert abs(s - s_big) <= 5e-9
    assert abs(c - c_big) <= 5e-9
    assert abs(d - d_big) <= 5e-9


def _zeta_mpmath(u: float, k: float) -> float:
    """Z(u) = (pi/2K) theta_4'(v)/theta_4(v), v = pi u/(2K), at 40 digits (DLMF 22.16.32)."""
    with mpmath.workdps(40):
        m = mpmath.mpf(k) ** 2
        big_k = mpmath.ellipk(m)
        q = mpmath.qfrom(m=m)
        v = mpmath.pi * mpmath.mpf(u) / (2 * big_k)
        return float(mpmath.pi / (2 * big_k) * mpmath.jtheta(4, v, q, 1) / mpmath.jtheta(4, v, q))


@pytest.mark.parametrize("k", [1e-6, 1.9e-3, 0.5, 0.99, 1.0 - 1e-8])
def test_jacobi_zeta_against_mpmath(k):
    """The zeta that the Landen recursion accumulates, sum_n c_n sin phi_n,
    matches 40-digit theta functions to 5e-14 of its largest size, from
    k -> 0 (Z ~ k^2/4 sin 2u) to the separatrix side (k' = 1.4e-4)."""
    table = _descent_table(k)
    us = np.linspace(-20.0, 100.0, 97)
    want = [_zeta_mpmath(u, k) for u in us]
    got = [_jacobi_zeta(float(u), table)[3] for u in us]
    scale = max(abs(w) for w in want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 5e-14 * scale


def test_jacobi_is_the_kernel_without_zeta():
    """jacobi(u, k) returns the kernel's (sn, cn, dn) bit for bit for 0 < k < 1."""
    rng = np.random.default_rng(11)
    for k in [1e-9, 1.9e-3, 0.3, 0.75, 0.999, 1.0 - 1e-12]:
        table = _descent_table(k)
        for u in [0.0, -1e-300, *rng.uniform(-50.0, 50.0, 20), 3e5]:
            assert jacobi(u, k) == _jacobi_zeta(float(u), table)[:3], (u, k)
