import math

import numpy as np
import pytest
import sympy
from scipy import stats

from transparent_dp.asymptotics import (
    FixedDesignMoments,
    biasing_coefficient,
    clt_variance,
    coverage_grid,
    distribution_limits,
    limit_coverage,
    reference_design,
    sample_moments,
)
from transparent_dp.cli import main
from transparent_dp.errors import DegenerateDesignError
from transparent_dp.normal import chi2_2_quantile, std_normal_cdf, std_normal_quantile
from transparent_dp.rng import stream

Z975 = stats.norm.ppf(0.975)


@pytest.fixture(scope="module")
def noisy_design_slopes():
    """Naive OLS slopes for the fixed reference design under Laplace noise.

    beta1 = 0.5, sigma = 1, sigma_u = sigma_v = 2 on both coordinates;
    R = 2000 replicates, vectorized row-wise.
    """
    x = reference_design()
    rng = stream(40, "limit-slopes")
    y = -0.2 + 0.5 * x + rng.normal(0.0, 1.0, (2000, x.size))
    b = 2.0 / math.sqrt(2.0)
    xt = x + rng.laplace(0.0, b, (2000, x.size))
    yt = y + rng.laplace(0.0, b, (2000, x.size))
    xc = xt - xt.mean(axis=1, keepdims=True)
    yc = yt - yt.mean(axis=1, keepdims=True)
    slopes = (xc * yc).sum(axis=1) / (xc**2).sum(axis=1)
    return x, slopes


def test_moments_validation():
    FixedDesignMoments(v=1.0, k=1.0, n=2)  # k = v^2 allowed
    with pytest.raises(ValueError):
        FixedDesignMoments(v=0.0, k=1.0, n=2)
    with pytest.raises(ValueError):
        FixedDesignMoments(v=2.0, k=3.9, n=2)


def test_sample_moments_hand_values():
    m = sample_moments([-1.0, 1.0])
    assert m.v == 1.0
    assert m.k == 1.0
    m = sample_moments([0.0, 0.0, 3.0, 3.0])
    assert m.v == pytest.approx(2.25, abs=1e-12)
    assert m.k == pytest.approx(5.0625, abs=1e-12)
    assert m.n == 4


def test_sample_moments_errors():
    with pytest.raises(DegenerateDesignError):
        sample_moments([2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        sample_moments([1.0])


def test_reference_design_is_pinned():
    x = reference_design()
    assert x.shape == (500,)
    m = sample_moments(x)
    assert abs(m.v - 1.023) < 5e-4
    # frozen regression values for the stored seed
    assert m.v == pytest.approx(1.0230322043668905, rel=1e-14)
    assert m.k == pytest.approx(2.7437635956521236, rel=1e-14)
    np.testing.assert_array_equal(x, reference_design())


def test_biasing_coefficient():
    m = sample_moments(reference_design())
    assert biasing_coefficient(m, 0.0) == 1.0
    assert biasing_coefficient(FixedDesignMoments(1.023, 1.5, 500), 4.0) == pytest.approx(
        1.023 / 5.023, rel=1e-12
    )
    assert biasing_coefficient(m, 1e12) < 1e-11
    with pytest.raises(ValueError):
        biasing_coefficient(m, -0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    (1e200, 1.0, 1.0, 0.0),
    (0.5, 1.0, np.float64(1e200), 0.0),
    (0.5, 1e308, 4.0, 0.0),
    (0.5, 1.0, math.inf, 0.0),
    (0.5, math.nan, 1.0, 1.0),
], ids=["beta1-square", "numpy-su-square", "sum", "inf-input", "nan-input"])
def test_clt_variance_refuses_a_result_that_is_not_finite(args):
    m = sample_moments(reference_design())
    with pytest.raises(ValueError, match=r"not finite at v=.*sigma_u_sq="):
        clt_variance(m, *args)


def test_clt_variance_noise_free_is_exact():
    m = sample_moments([0.0, 1.0, 2.0, 4.0, 7.0])
    assert clt_variance(m, 3.0, 2.7, 0.0, 0.0) == 2.7 / m.v


def test_clt_variance_matches_symbolic_oracle():
    m = sample_moments(reference_design())
    v, k, b1, s2, su, sv = sympy.symbols("v k b1 s2 su sv", positive=True)
    g = v / (v + su)
    expr = (
        b1**2 * (g**2 * (k + 6 * su * v + 6 * su**2) - 2 * g * (k + 3 * su * v) + k + su * v)
        + (sv + s2) * (v + su)
    ) / (v + su) ** 2
    val = expr.subs(
        {v: sympy.Float(m.v, 30), k: sympy.Float(m.k, 30), b1: sympy.Rational(1, 2),
         s2: 1, su: 4, sv: 4}
    )
    expected = float(sympy.N(val, 30))
    assert clt_variance(m, 0.5, 1.0, 4.0, 4.0) == pytest.approx(expected, rel=1e-12)


def test_clt_variance_increasing_in_y_noise():
    m = sample_moments(reference_design())
    vals = [clt_variance(m, 0.5, 1.0, 4.0, sv) for sv in (0.0, 1.0, 4.0, 9.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_clt_variance_rejects_negative_arguments():
    m = sample_moments([-1.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        clt_variance(m, 1.0, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        clt_variance(m, 1.0, 1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        clt_variance(m, 1.0, 1.0, 0.0, -1.0)


def test_distribution_limits_values():
    lo, hi = distribution_limits(0.7, 2.0, 0.0, 100, 0.05)
    assert lo == hi == pytest.approx(1.4)
    lo, hi = distribution_limits(1.0, 0.5, 1.0 / 1.023, 500, 0.05)
    half = Z975 * math.sqrt(1.0 / (500 * 1.023))
    assert lo == pytest.approx(0.5 - half, rel=1e-9)
    assert hi == pytest.approx(0.5 + half, rel=1e-9)
    with pytest.raises(ValueError):
        distribution_limits(1.0, 0.5, 1.0, 500, 0.0)
    with pytest.raises(ValueError):
        distribution_limits(1.0, 0.5, 1.0, 500, 1.5)
    with pytest.raises(ValueError):
        distribution_limits(1.0, 0.5, -1.0, 500, 0.05)


def test_distribution_limits_match_simulated_quantiles(noisy_design_slopes):
    x, slopes = noisy_design_slopes
    m = sample_moments(x)
    st = clt_variance(m, 0.5, 1.0, 4.0, 4.0)
    half = Z975 * math.sqrt(st / m.n)
    lo, hi = np.quantile(slopes, [0.025, 0.975])
    assert abs((hi - lo) / 2.0 - half) < 0.1 * half


def test_standardized_slope_is_normal(noisy_design_slopes):
    x, slopes = noisy_design_slopes
    m = sample_moments(x)
    gamma = biasing_coefficient(m, 4.0)
    st = clt_variance(m, 0.5, 1.0, 4.0, 4.0)
    z = math.sqrt(m.n) * (slopes - gamma * 0.5) / math.sqrt(st)
    assert stats.kstest(z, "norm").pvalue > 0.001


def test_limit_coverage_nominal_without_noise():
    m = sample_moments(reference_design())
    st = clt_variance(m, 0.5, 1.0, 0.0, 0.0)
    assert limit_coverage(1.0, 0.5, st, 500, 0.05) == pytest.approx(0.95, abs=1e-9)


def test_limit_coverage_collapses_under_heavy_x_noise():
    m = sample_moments(reference_design())
    st = clt_variance(m, 0.5, 1.0, 400.0, 0.0)
    gamma = biasing_coefficient(m, 400.0)
    assert limit_coverage(gamma, 0.5, st, 500, 0.05) < 1e-3


def test_limit_coverage_matches_simulation_both_conventions():
    m = sample_moments(reference_design())
    st = clt_variance(m, 0.5, 1.0, 4.0, 4.0)
    gamma = biasing_coefficient(m, 4.0)
    rng = stream(41, "coverage-mc")
    draws = rng.normal(gamma * 0.5, math.sqrt(st / 500), 10**5)
    for conv, half in (
        ("privacy_aware_se", Z975 * math.sqrt(st / 500)),
        ("classical_se", Z975 * math.sqrt(1.0 / (500 * m.v))),
    ):
        hits = np.abs(draws - 0.5) < half
        p_hat = hits.mean()
        se = max(math.sqrt(p_hat * (1 - p_hat) / 10**5), 1e-6)
        analytic = limit_coverage(
            gamma, 0.5, st, 500, 0.05, convention=conv, sigma_sq=1.0, v=m.v
        )
        assert abs(analytic - p_hat) < 2 * se + 1e-4


def test_limit_coverage_sign_symmetric():
    m = sample_moments(reference_design())
    st = clt_variance(m, 0.5, 1.0, 4.0, 4.0)
    gamma = biasing_coefficient(m, 4.0)
    a = limit_coverage(gamma, 0.5, st, 500, 0.05)
    b = limit_coverage(gamma, -0.5, st, 500, 0.05)
    assert a == b


def test_limit_coverage_argument_errors():
    with pytest.raises(ValueError):
        limit_coverage(1.0, 0.5, 1.0, 500, 0.05, convention="classical_se")
    with pytest.raises(ValueError):
        limit_coverage(1.0, 0.5, 1.0, 500, 0.05, convention="bootstrap")
    with pytest.raises(ValueError):
        limit_coverage(1.0, 0.5, 0.0, 500, 0.05)


def test_coverage_grid_shape_and_nominal_cell():
    x = reference_design()
    rows = coverage_grid(x, 0.5, 1.0, [0.0, 1.0, 2.0], [0.0, 2.0], alpha=0.05)
    assert len(rows) == 3 * 2 * 2
    by_key = {(su, sv, conv): cov for su, sv, conv, cov in rows}
    assert by_key[(0.0, 0.0, "privacy_aware_se")] == pytest.approx(0.95, abs=1e-9)
    assert by_key[(0.0, 0.0, "classical_se")] == pytest.approx(0.95, abs=1e-9)


def test_coverage_grid_monotone_in_x_noise():
    x = reference_design()
    rows = coverage_grid(
        x, 0.5, 1.0, np.linspace(0.0, 2.0, 5), [0.0], convention="privacy_aware_se"
    )
    covs = [cov for _, _, _, cov in rows]
    assert all(a > b for a, b in zip(covs, covs[1:]))


def test_coverage_grid_deterministic_and_ordered():
    x = reference_design()
    args = (x, 0.5, 1.0, [0.0, 2.0], [0.0, 1.0])
    rows = coverage_grid(*args)
    assert rows == coverage_grid(*args)
    # su outer, sv inner, convention innermost
    assert [(r[0], r[1], r[2]) for r in rows[:4]] == [
        (0.0, 0.0, "privacy_aware_se"),
        (0.0, 0.0, "classical_se"),
        (0.0, 1.0, "privacy_aware_se"),
        (0.0, 1.0, "classical_se"),
    ]


def test_coverage_grid_rejects_bad_ranges():
    x = reference_design()
    with pytest.raises(ValueError):
        coverage_grid(x, 0.5, 1.0, [-1.0], [0.0])
    with pytest.raises(ValueError):
        coverage_grid(x, 0.5, 1.0, [0.0], [0.0], convention="either")


def test_grid_to_csv_round_trip(capsys):
    # the grid as `tdp coverage-grid` writes it reads back to coverage_grid's rows
    assert main(["coverage-grid", "--steps", "2", "--convention", "privacy_aware_se"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "sigma_u,sigma_v,convention,coverage"
    rows = [ln.split(",") for ln in lines[1:]]
    axis = np.linspace(0.0, 2.0, 2)
    assert [(float(su), float(sv), conv, float(cov)) for su, sv, conv, cov in rows] == (
        coverage_grid(reference_design(), 0.5, 1.0, axis, axis, convention="privacy_aware_se")
    )


def test_std_normal_cdf_matches_scipy():
    xs = np.linspace(-8.0, 8.0, 101)
    for x in xs:
        assert std_normal_cdf(float(x)) == pytest.approx(stats.norm.cdf(x), abs=1e-14)


def test_std_normal_quantile_accuracy():
    ps = np.concatenate([[1e-9, 1e-6, 1e-4], np.linspace(0.01, 0.99, 50), [1 - 1e-6]])
    for p in ps:
        assert abs(std_normal_quantile(float(p)) - stats.norm.ppf(p)) < 1e-9
    with pytest.raises(ValueError):
        std_normal_quantile(0.0)
    with pytest.raises(ValueError):
        std_normal_quantile(1.0)


def test_chi2_2_quantile_matches_scipy():
    for p in (0.05, 0.5, 0.95, 0.99):
        assert chi2_2_quantile(p) == pytest.approx(stats.chi2.ppf(p, df=2), rel=1e-12)
    with pytest.raises(ValueError):
        chi2_2_quantile(1.0)
