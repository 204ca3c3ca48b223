import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from transparent_dp import normal
from transparent_dp.mechanisms import laplace_log_density
from transparent_dp.normal import _gap_moments, _log_cdf_scaled, normal_laplace


def test_log_cdf_scaled_matches_scipy():
    # M(a) = log Φ(a) + a²/2; below 0 it is log(erfcx(-a / √2) / 2)
    a = np.linspace(-40.0, 10.0, 100_001)
    got = _log_cdf_scaled(a)
    ref = np.where(a > 0, special.log_ndtr(a) + 0.5 * a * a,
                   np.log(special.erfcx(-a / math.sqrt(2.0)) / 2.0))
    assert (np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)).max() <= 1e-14


def test_log_cdf_scaled_far_tail_and_shapes():
    # past a = -38 Φ(a) underflows; M(a) stays finite and exact, even where
    # a² overflows
    for a in (-1e3, -1e6, -1e150):
        u = 1.0 / (a * a)
        expected = -math.log(-a) - 0.5 * math.log(2 * math.pi) + math.log1p(-u + 3 * u * u)
        assert float(_log_cdf_scaled(np.array([a]))[0]) == pytest.approx(expected, rel=1e-12)
    assert float(_log_cdf_scaled(np.array([0.0]))[0]) == pytest.approx(-math.log(2.0), rel=1e-15)
    assert float(_log_cdf_scaled(np.array([40.0]))[0]) == 800.0
    assert _log_cdf_scaled(np.zeros((2, 3))).shape == (2, 3)


def mills_fraction(t, terms=400):
    # a - Z given Z < a = -t: mean 1 / (t + 2 / (t + 3 / (t + ...))), and
    # E[(a - Z)^2] = c / (t + c) with c = 2 / (t + 3 / (t + ...)), both
    # evaluated from the tail of the continued fraction up
    tail = np.zeros_like(t)
    for k in range(terms, 2, -1):
        tail = k / (t + tail)
    c = 2.0 / (t + tail)
    return 1.0 / (t + c), c / (t + c)


def test_gap_moments_match_continued_fraction():
    t = np.geomspace(20.0, 1e7, 2001)
    h, var = _gap_moments(-t, _log_cdf_scaled(-t))
    mean, second = mills_fraction(t)
    np.testing.assert_allclose(h, mean, rtol=1e-12, atol=0)
    # at t = 20, the last point of the direct form, the variance 1 - h φ/Φ
    # keeps 10 digits; past it the series keeps all of them
    np.testing.assert_allclose(var, second - mean**2, rtol=1e-10, atol=0)
    np.testing.assert_allclose(var[1:], (second - mean**2)[1:], rtol=1e-13, atol=0)


@pytest.mark.parametrize("a", [-19.0, -6.0, -1.5, 0.0, 0.7, 3.0, 9.0])
def test_gap_moments_match_quadrature(a):
    # the near side, where the moments are computed from φ/Φ directly
    dens = lambda g, k: g**k * stats.norm.pdf(a - g)
    mass = integrate.quad(dens, 0.0, np.inf, args=(0,), epsabs=0, epsrel=1e-13)[0]
    mean = integrate.quad(dens, 0.0, np.inf, args=(1,), epsabs=0, epsrel=1e-13)[0] / mass
    second = integrate.quad(dens, 0.0, np.inf, args=(2,), epsabs=0, epsrel=1e-13)[0] / mass
    a = np.array([a])
    h, var = _gap_moments(a, _log_cdf_scaled(a))
    assert float(h[0]) == pytest.approx(mean, rel=1e-10)
    assert float(var[0]) == pytest.approx(second - mean**2, rel=1e-9)


def convolution(d, sigma, b, m=400_001):
    """log g(d), E[r | d] and Var(r | d) by the trapezoid rule, for r normal
    with sd sigma and Laplace(b) noise d - r.  The log density in r is
    concave with a kink at r = d, so one grid spans the bulk around the mode
    and one resolves the kink on the scale min(sigma, b)."""
    mode = d if abs(d) <= sigma**2 / b else math.copysign(sigma**2 / b, d)
    grid = np.unique(np.concatenate([
        mode + 40.0 * sigma * np.linspace(-1.0, 1.0, m),
        d + 60.0 * min(sigma, b) * np.linspace(-1.0, 1.0, m),
    ]))
    log_f = stats.norm.logpdf(grid, 0.0, sigma) + laplace_log_density(d - grid, b)
    top = log_f.max()
    f = np.exp(log_f - top)
    mass = integrate.trapezoid(f, grid)
    mean = integrate.trapezoid(f * grid, grid) / mass
    var = integrate.trapezoid(f * (grid - mean) ** 2, grid) / mass
    return top + math.log(mass), mean, var


CASES = [
    (0.3, 5.0, 4.0),
    (-12.0, 5.0, 1.0),
    (40.0, 5.0, 1.0),
    (-250.0, 5.0, 4.0),
    (3.0, 2.0, 2.0),
    (100.0, 1.0, 50.0),
    (0.7, 5.0, 5e-6),      # sigma / b = 1e6: a nearly noise-free release
    (-3e-6, 5.0, 5e-6),
]


@pytest.mark.parametrize("d, sigma, b", CASES)
def test_normal_laplace_matches_trapezoid_convolution(d, sigma, b):
    log_g, mean, var = normal_laplace(d, sigma, b)
    ref_log_g, ref_mean, ref_var = convolution(d, sigma, b)
    assert float(log_g) == pytest.approx(ref_log_g, abs=1e-8)
    assert float(mean) == pytest.approx(ref_mean, rel=1e-8, abs=1e-8 * min(sigma, b))
    assert float(var) == pytest.approx(ref_var, rel=1e-8)


def test_normal_laplace_limits():
    d = np.linspace(-30.0, 30.0, 13)
    # b -> 0: the release is y itself, so g is the normal density and r = d
    log_g, mean, var = normal_laplace(d, 2.0, 1e-9)
    np.testing.assert_allclose(log_g, stats.norm.logpdf(d, 0.0, 2.0), rtol=1e-7)
    np.testing.assert_allclose(mean, d, rtol=1e-7, atol=1e-8)
    assert (var <= 2.1e-18).all()
    # g is symmetric and peaks at d = 0
    log_g, mean, var = normal_laplace(d, 3.0, 2.0)
    np.testing.assert_allclose(log_g, log_g[::-1], rtol=1e-14)
    np.testing.assert_allclose(mean, -mean[::-1], rtol=1e-13, atol=1e-13)
    assert log_g.argmax() == 6


def releases(size, sigma, rng):
    # residual draws of every scale the kernel branches on: near 0, the bulk,
    # far past the series threshold, and the upper tail of both pieces
    d = rng.normal(0.0, 3.0 * sigma, size)
    d[::5] *= 40.0
    d[1::7] = rng.uniform(-1e-6, 1e-6, d[1::7].size)
    return d


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("sigma, b", [(5.0, 4.0), (5.0, 1.0), (1.0, 50.0), (5.0, 5e-6)])
@pytest.mark.parametrize("offset", [-1, 0, 1, "3x+7"])
def test_normal_laplace_blocks_change_no_bit(sigma, b, offset, monkeypatch):
    size = 3 * normal._BLOCK + 7 if offset == "3x+7" else normal._BLOCK + offset
    d = releases(size, sigma, np.random.default_rng(size))
    rows = d[: size - size % 3].reshape(3, -1)
    blocked = normal_laplace(d, sigma, b)
    blocked_rows = normal_laplace(rows, sigma, b)
    monkeypatch.setattr(normal, "_BLOCK", size + 1)
    whole = normal_laplace(d, sigma, b)
    for got, got_rows, ref in zip(blocked, blocked_rows, whole):
        assert same_bits(got, ref)
        assert same_bits(got_rows, ref[: rows.size].reshape(rows.shape))
    # and one cell at a time
    monkeypatch.setattr(normal, "_BLOCK", 1)
    for got, ref in zip(normal_laplace(d[:50], sigma, b), whole):
        assert same_bits(got, ref[:50])


def test_normal_laplace_keeps_the_shape_of_d():
    ref = normal_laplace(np.array([0.3, -7.0]), 5.0, 4.0)
    for d in (0.3, np.float64(0.3), np.array(0.3)):
        out = normal_laplace(d, 5.0, 4.0)
        for got, whole in zip(out, ref):
            assert np.shape(got) == ()
            assert same_bits(np.asarray(got), whole[0])
    for got in normal_laplace(np.zeros((0, 4)), 5.0, 4.0):
        assert got.shape == (0, 4)
