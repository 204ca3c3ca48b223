import json

import numpy as np
import pytest
from scipy import stats

from transparent_dp.cli import _fit_report, _json
from transparent_dp.errors import DegenerateDesignError
from transparent_dp.mechanisms import PrivacyBudget
from transparent_dp.naive_fit import FitResult, ols
from transparent_dp.rng import stream
from transparent_dp.simulate import RegressionParams, gen_confidential, privatize_dataset

REF_PARAMS = RegressionParams(beta0=-5.0, beta1=4.0, sigma=5.0, lam=10.0)


def test_ols_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = ols(x, 2.0 * x + 1.0)
    assert fit.beta0_hat == pytest.approx(1.0, abs=1e-12)
    assert fit.beta1_hat == pytest.approx(2.0, abs=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)
    assert fit.method == "naive"
    assert fit.n == 4


def test_ols_matches_linregress():
    rng = stream(11, "ols-ref")
    x = rng.normal(size=40)
    y = 1.5 - 0.7 * x + rng.normal(size=40)
    fit = ols(x, y)
    ref = stats.linregress(x, y)
    assert fit.beta1_hat == pytest.approx(ref.slope, rel=1e-12)
    assert fit.beta0_hat == pytest.approx(ref.intercept, rel=1e-12)
    assert np.sqrt(fit.covariance[1, 1]) == pytest.approx(ref.stderr, rel=1e-10)
    assert np.sqrt(fit.covariance[0, 0]) == pytest.approx(ref.intercept_stderr, rel=1e-10)


def test_ols_covariance_equals_explicit_inverse():
    rng = stream(12, "ols-cov")
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    fit = ols(x, y)
    design = np.column_stack([np.ones_like(x), x])
    resid = y - design @ np.array([fit.beta0_hat, fit.beta1_hat])
    s_sq = resid @ resid / (25 - 2)
    expected = s_sq * np.linalg.inv(design.T @ design)
    np.testing.assert_allclose(fit.covariance, expected, rtol=1e-10)


def test_ols_confidential_slope_near_truth():
    data = gen_confidential(10**4, REF_PARAMS, stream(13, "ols-conf"))
    fit = ols(data.x, data.y)
    se = np.sqrt(fit.covariance[1, 1])
    assert abs(fit.beta1_hat - 4.0) < 3 * se


def test_ols_privatized_slope_attenuates():
    data = gen_confidential(10**5, REF_PARAMS, stream(14, "ols-priv"))
    priv = privatize_dataset(data, PrivacyBudget(0.25), PrivacyBudget(0.25), stream(14, "ols-priv-n"))
    fit = ols(priv.x_tilde, priv.y_tilde)
    assert abs(fit.beta1_hat - 0.95238) < 0.05
    assert abs(fit.beta1_hat - 4.0) > 2.5


def test_ols_unbiased_on_confidential_data():
    slopes = np.empty(2000)
    for r in range(2000):
        data = gen_confidential(50, REF_PARAMS, stream(15, "ols-unbiased", r))
        slopes[r] = ols(data.x, data.y).beta1_hat
    mc_se = slopes.std(ddof=1) / np.sqrt(2000)
    assert abs(slopes.mean() - 4.0) < 3 * mc_se


@pytest.mark.parametrize("dtype", ["float", "int64"])
def test_ols_in_place_sums_equal_the_written_out_expressions(dtype):
    # ols takes its sums of squares and cross products in place; they, and
    # so the fit, are those of the written-out expressions to the bit.
    rng = stream(17, "ols-bits", dtype)
    for n in (3, 10, 1000, 100_001):
        if dtype == "float":
            x, y = rng.normal(3.0, 7.0, n), rng.standard_cauchy(n)
        else:
            x, y = rng.poisson(10.0, n), rng.integers(-10**6, 10**6, n)
        xf, yf = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        x_bar, y_bar = xf.mean(), yf.mean()
        sxx = float(np.sum((xf - x_bar) ** 2))
        sxy = float(np.sum((xf - x_bar) * (yf - y_bar)))
        beta1 = sxy / sxx
        beta0 = float(y_bar - beta1 * x_bar)
        s_sq = float(np.sum((yf - beta0 - beta1 * xf) ** 2)) / (n - 2)
        fit = ols(x, y)
        assert (fit.beta1_hat, fit.beta0_hat, fit.residual_variance) == (beta1, beta0, s_sq)
        assert fit.covariance[1, 1] == s_sq * (n / (n * sxx))


def test_ols_rejects_bad_input():
    with pytest.raises(DegenerateDesignError):
        ols([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ols([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ols([1.0, 2.0, 3.0], [1.0, 2.0])


def test_residual_variance_matches_true_coefficient_errors():
    # The inflation formula describes the error variance at the true line,
    # evaluated on privatized data.
    data = gen_confidential(2 * 10**5, REF_PARAMS, stream(16, "resid"))
    priv = privatize_dataset(data, PrivacyBudget(0.25), PrivacyBudget(0.25), stream(16, "resid-n"))
    resid = np.asarray(priv.y_tilde) - (-5.0 + 4.0 * np.asarray(priv.x_tilde))
    assert abs(resid.var() / 569.0 - 1.0) < 0.05


def test_fit_result_validation():
    cov = np.eye(2)
    with pytest.raises(ValueError):
        FitResult(0.0, 1.0, np.eye(3), 1.0, "naive", 5)
    with pytest.raises(ValueError):
        FitResult(0.0, 1.0, np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0, "naive", 5)
    with pytest.raises(ValueError):
        FitResult(0.0, 1.0, cov, 1.0, "magic", 5)
    with pytest.raises(ValueError):
        FitResult(0.0, 1.0, cov, -1.0, "naive", 5)
    # all-NaN covariance is the explicit "unavailable" sentinel
    nan_fit = FitResult(0.0, 1.0, np.full((2, 2), np.nan), 1.0, "mcem", 5)
    assert np.isnan(nan_fit.covariance).all()


def test_fit_result_to_json_writes_every_field():
    # the JSON object tdp prints for a fit
    for method in ("naive", "mcem"):
        fit = FitResult(0.5, -1.25, np.array([[2.0, 0.5], [0.5, 1.0]]), 0.75, method, 9)
        obj = json.loads(_json(_fit_report(fit)))
        assert obj == {"beta0": 0.5, "beta1": -1.25, "cov": [[2.0, 0.5], [0.5, 1.0]],
                       "resid_var": 0.75, "method": method, "n": 9}
