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
    _jacobi_zeta,
    agm_sequence,
    cn,
    complete_E,
    complete_K,
    dn,
    incomplete_F,
    inverse_cn,
    inverse_dn,
    jacobi,
    sech,
    sn,
)


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


def test_complete_E_against_quadrature():
    """E(0) = pi/2, E(1) = 1, and the AGM value agrees with quadrature of the definition."""
    assert abs(complete_E(0.0) - math.pi / 2) <= 1e-15
    assert complete_E(1.0) == 1.0
    for k in [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999]:
        with warnings.catch_warnings():
            # epsabs=1e-14 sits at the roundoff floor; quad warns but delivers
            warnings.simplefilter("ignore", IntegrationWarning)
            want, _ = quad(lambda th: math.sqrt(1.0 - (k * math.sin(th)) ** 2), 0.0, math.pi / 2,
                           epsabs=1e-14, epsrel=1e-14, limit=200)
        assert abs(complete_E(k) - want) <= 1e-13, f"k={k}"


def test_agm_sequence_gives_K_and_the_mean_of_dn():
    """K = pi/(2M), 1 - M = sum_{n>=1} c_n, and M is the mean of dn over [0, 2K]."""
    for k in [1e-6, 0.3, 0.75, 0.99, 1.0 - 1e-12]:
        mean, cs = agm_sequence(k)
        big_k = complete_K(k)
        assert abs(math.pi / (2.0 * mean) - big_k) <= 4e-16 * big_k
        assert abs((1.0 - mean) - math.fsum(cs[1:])) <= 4e-16
        if k < 0.999:
            avg, _ = quad(lambda u: jacobi(u, k)[2], 0.0, 2.0 * big_k, epsabs=1e-13, epsrel=1e-13)
            assert abs(avg / (2.0 * big_k) - mean) <= 1e-13, f"k={k}"
    with pytest.raises(ValueError):
        agm_sequence(1.0)


def test_modulus_domain_errors():
    for bad in [-0.1, 1.0000001, 2.0, math.nan]:
        with pytest.raises(ValueError):
            complete_K(bad)
        with pytest.raises(ValueError):
            jacobi(0.3, bad)


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
            sp = (sn(u + h, k) - sn(u - h, k)) / (2 * h)
            cp = (cn(u + h, k) - cn(u - h, k)) / (2 * h)
            dp = (dn(u + h, k) - dn(u - h, k)) / (2 * h)
            s, c, d = jacobi(u, k)
            assert abs(sp - c * d) <= 1e-9
            assert abs(cp + s * d) <= 1e-9
            assert abs(dp + k * k * s * c) <= 1e-9


@pytest.mark.parametrize("k", [0.0, 1e-8, 0.5, 0.99, 1.0 - 1e-12])
def test_incomplete_integrals_against_mpmath(k):
    """F(phi, k) from Carlson's R_F matches 40-digit mpmath values for |phi|
    up to 3 pi, across the reduction phi = n pi + r."""
    phis = [0.0, 1e-9, 0.3, 1.0, math.pi / 2, 2.0, 3.0, 5.0, 7.5, 9.0, -2.3, -9.4, 3 * math.pi]
    with mpmath.workdps(40):
        m = mpmath.mpf(k) ** 2
        for phi in phis:
            want_f = float(mpmath.ellipf(mpmath.mpf(phi), m))
            assert abs(incomplete_F(phi, k) - want_f) <= 1e-15 * max(1.0, abs(want_f)), (phi, k)
    assert incomplete_F(0.0, k) == 0.0
    assert abs(incomplete_F(math.pi, k) - 2.0 * complete_K(k)) <= 1e-15 * complete_K(k)


def test_incomplete_integral_domain_errors():
    with pytest.raises(ValueError):
        incomplete_F(0.3, 1.5)
    with pytest.raises(ValueError):
        incomplete_F(math.inf, 0.5)
    assert incomplete_F(2.0, 1.0) == math.inf


def test_inverse_cn_round_trip():
    for k in [0.0, 0.3, 0.7, 0.95]:
        bigK = complete_K(k)
        assert abs(inverse_cn(0.0, k) - bigK) <= 1e-12
        assert inverse_cn(1.0, k) == 0.0
        assert abs(inverse_cn(-1.0, k) - 2 * bigK) <= 1e-12
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
            x = dn(u, k)
            assert abs(inverse_dn(x, k) - u) <= 1e-11, f"k={k} u={u}"


def test_inverse_dn_at_unit_modulus():
    """dn(., 1) = sech, so the inverse is arcsech."""
    for x in [0.2, 0.5, 0.9, 1.0]:
        u = inverse_dn(x, 1.0)
        assert abs(sech(u) - x) <= 1e-13
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
