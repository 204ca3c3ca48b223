import json
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from transparent_dp.cli import main
from transparent_dp.errors import (
    DegenerateDesignError,
    DegenerateWeightsError,
    NonPDInformationError,
    UnsupportedFamilyError,
)
from transparent_dp.mechanisms import (
    Family,
    MechanismSpec,
    PrivacyBudget,
    double_geometric_log_pmf,
    privatize_vector,
)
from transparent_dp.mcem import (
    Ellipse,
    MCEMConfig,
    MCEMState,
    _mean_score,
    confidence_ellipse,
    e_step,
    ellipse_study,
    log_importance_weights,
    m_step,
    observed_fisher,
    run_mcem,
    x_proposal,
)
from transparent_dp.naive_fit import ols
from transparent_dp.normal import chi2_2_quantile, normal_laplace
from transparent_dp.rng import derive_seed, stream
from transparent_dp.simulate import (
    PrivatizedDataset,
    RegressionParams,
    dataset_from_dict,
    gen_confidential,
    privatize_dataset,
)

REF_PARAMS = RegressionParams(beta0=-5.0, beta1=4.0, sigma=5.0, lam=10.0)


def reference_instance(seed, n=10, eps=0.25):
    data = gen_confidential(n, REF_PARAMS, stream(seed, "mcem-conf"), seed=seed)
    priv = privatize_dataset(
        data, PrivacyBudget(eps), PrivacyBudget(eps), stream(seed, "mcem-noise")
    )
    return data, priv


def table_state(counts, raw_log_w=None, mean_r=None, var_r=None, theta=(0.0, 1.0)):
    # An E-step state on the support 0..S-1, with raw per-cell log weights
    # normalized per record as e_step does (equal raw weights by default).
    counts = np.asarray(counts)
    shape = counts.shape
    raw = np.zeros(shape) if raw_log_w is None else np.asarray(raw_log_w, dtype=float)
    log_w = np.where(counts > 0, raw, -np.inf)
    p = counts * np.exp(log_w - log_w.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return MCEMState(
        theta=theta,
        support=np.arange(float(shape[1])),
        counts=counts,
        cell_weights=p,
        mean_r=np.zeros(shape) if mean_r is None else np.asarray(mean_r, dtype=float),
        var_r=np.zeros(shape) if var_r is None else np.asarray(var_r, dtype=float),
        ess=float(1.0 / np.max((p * p / np.maximum(counts, 1)).sum(axis=1))),
    )


def per_draw(counts, table):
    # Expand an (n, S) table to the (K, n) layout of the E-step's x draws:
    # entry (k, i) is the table's value at draw k of x_i.
    n = counts.shape[0]
    return np.repeat(table.ravel(), counts.ravel()).reshape(n, -1).T


def draw_weights(counts, cell_weights):
    # The normalized weight of each draw, (K, n): a cell's mass split
    # evenly over the draws that fell on it.
    return per_draw(counts, cell_weights / np.maximum(counts, 1))


def point_state(x, y, theta=(0.0, 1.0), k=1):
    # every record's k draws on its own x, with y known exactly there
    x = np.asarray(x).astype(int)
    rows = np.arange(x.size)
    counts = np.zeros((x.size, x.max() + 1), dtype=np.int64)
    counts[rows, x] = k
    mean_r = np.zeros(counts.shape)
    mean_r[rows, x] = np.asarray(y) - theta[0] - theta[1] * x
    return table_state(counts, mean_r=mean_r, theta=theta)


def test_config_validation():
    with pytest.raises(ValueError):
        MCEMConfig(k_samples=1)
    with pytest.raises(ValueError):
        MCEMConfig(max_iter=0)
    with pytest.raises(TypeError):
        MCEMConfig(tol=1e-3)
    with pytest.raises(TypeError):
        MCEMConfig(ess_floor=0.01)
    with pytest.raises(ValueError):
        MCEMConfig(alpha=1.0)
    with pytest.raises(ValueError):
        MCEMConfig(sigma=0.0)
    with pytest.raises(ValueError):
        MCEMConfig(lam=0.0)
    cfg = MCEMConfig()
    assert cfg.k_samples == 5000
    assert cfg.max_iter == 40


@pytest.mark.parametrize("name", ["sigma", "lam"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_nonfinite_sigma_and_lam(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        MCEMConfig(**{name: value})


def test_log_importance_weights_match_mechanism_density():
    # Per drawn cell: the density of the y release given x = s, that is the
    # regression law convolved with the spec's own Laplace density (by the
    # trapezoid rule); cells without a draw are -inf with zero moments.
    _, priv = reference_instance(60, n=4)
    theta, sigma = (-3.0, 3.5), 5.0
    support = np.arange(12.0)
    counts = stream(60, "liw").integers(0, 2, (4, 12))
    log_w, mean_r, var_r = log_importance_weights(priv, theta, support, counts, sigma)
    assert log_w.shape == mean_r.shape == var_r.shape == (4, 12)
    r = np.linspace(-80.0, 80.0, 160_001)
    for i in range(4):
        for s in range(12):
            if counts[i, s] == 0:
                assert (log_w[i, s], mean_r[i, s], var_r[i, s]) == (-np.inf, 0.0, 0.0)
                continue
            y = theta[0] + theta[1] * s + r
            dens = stats.norm.pdf(r, 0.0, sigma) * np.exp(
                priv.spec_y.log_density(y - priv.y_tilde[i])
            )
            mass = integrate.trapezoid(dens, r)
            assert log_w[i, s] == pytest.approx(math.log(mass), abs=1e-6)
            assert mean_r[i, s] == pytest.approx(
                integrate.trapezoid(dens * r, r) / mass, abs=1e-5
            )


def test_log_importance_weights_read_the_declared_family():
    # A double-geometric x release enters through the x proposal, which
    # is Pois(s; lam) times the release's own pmf, normalized per record.
    _, priv = reference_instance(62, n=4, eps=1.0)
    dg = MechanismSpec(Family.DOUBLE_GEOMETRIC, 2.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(x_tilde=np.round(priv.x_tilde), y_tilde=priv.y_tilde,
                             spec_x=dg, spec_y=priv.spec_y, parent_seed=62)
    support, log_q, _ = x_proposal(priv, 10.0)
    assert support[0] == 0.0 and np.all(np.diff(support) == 1.0)
    for i in range(4):
        unnorm = stats.poisson.logpmf(support, 10.0) + np.array([
            double_geometric_log_pmf(int(priv.x_tilde[i] - s), dg.budget, 2)
            for s in support
        ])
        expected = unnorm - special.logsumexp(unnorm)
        np.testing.assert_allclose(log_q[i], expected, rtol=1e-12, atol=1e-12)
    # The Laplace y release is read at its own scale ...
    counts = np.ones((4, support.size), dtype=np.int64)
    got = log_importance_weights(priv, (1.0, 2.0), support, counts, 5.0)
    d = priv.y_tilde[:, None] - 1.0 - 2.0 * support
    for table, expected in zip(got, normal_laplace(d, 5.0, priv.spec_y.scale)):
        np.testing.assert_array_equal(table, expected)
    # ... and a double-geometric y release, which has no density at the
    # real-valued y of the model, cannot be built to reach it.
    with pytest.raises(UnsupportedFamilyError):
        PrivatizedDataset(x_tilde=priv.x_tilde, y_tilde=np.round(priv.y_tilde),
                          spec_x=priv.spec_x, spec_y=dg, parent_seed=62)


def test_exact_match_attains_maximal_weight():
    # g is symmetric and peaks at 0, so each record's largest raw weight is
    # at the x value whose regression line passes through its release,
    # where it is log g(0) = -log b + kappa^2 / 2 + log Phi(-kappa) with
    # kappa = sigma / b.
    _, priv = reference_instance(61, n=5)
    theta, sigma, b = (2.0, 3.0), 5.0, priv.spec_y.scale
    x_star = np.array([3, 9, 0, 14, 7])
    priv = PrivatizedDataset(x_tilde=priv.x_tilde, y_tilde=theta[0] + theta[1] * x_star,
                             spec_x=priv.spec_x, spec_y=priv.spec_y, parent_seed=61)
    counts = np.ones((5, 20), dtype=np.int64)
    raw, _, _ = log_importance_weights(priv, theta, np.arange(20.0), counts, sigma)
    kappa = sigma / b
    peak = -math.log(b) + kappa**2 / 2 + special.log_ndtr(-kappa)
    np.testing.assert_allclose(raw[np.arange(5), x_star], peak, rtol=1e-12)
    assert (raw.argmax(axis=1) == x_star).all()


@pytest.mark.parametrize("eps", [0.25, 1.0, 5.0])
def test_x_proposal_truncation_matches_wide_support(eps):
    # The truncated support loses no mass a support of 0..2000 would see.
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(eps))
    x_tilde = np.array([-20.0, 60.0, 200.0])
    priv = PrivatizedDataset(x_tilde=x_tilde, y_tilde=np.zeros(3), spec_x=spec,
                             spec_y=spec, parent_seed=0)
    support, log_q, log_mass = x_proposal(priv, 10.0)
    assert support[-1] >= 200.0
    wide = np.arange(2001.0)
    ref = stats.poisson.logpmf(wide, 10.0) - np.abs(x_tilde[:, None] - wide) * eps
    # log_mass is log sum_s lam^s / s! f_x(x~ - s): the wide sum above, less
    # the Poisson's -lam, with the Laplace's log normalizer log(eps / 2)
    wide_mass = special.logsumexp(ref, axis=1) + 10.0 + math.log(eps / 2.0)
    np.testing.assert_allclose(log_mass, wide_mass, rtol=1e-12, atol=1e-12)
    ref = np.exp(ref - special.logsumexp(ref, axis=1, keepdims=True))
    m = support.size
    assert np.abs(np.exp(log_q) - ref[:, :m]).max() <= 1e-12
    assert ref[:, m:].sum(axis=1).max() <= 1e-12


def test_e_step_matches_brute_force_posterior_means():
    # Per-record posterior means of x and y at theta, against the
    # Poisson support summed and y integrated on a fine trapezoid grid.
    x_tilde = np.array([8.747, 7.655, 3.661, 4.664, -1.3])
    y_tilde = np.array([12.485, 19.217, 7.683, 11.223, 2.0])
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5))
    priv = PrivatizedDataset(x_tilde=x_tilde, y_tilde=y_tilde, spec_x=spec,
                             spec_y=spec, parent_seed=0)
    beta0, beta1, sigma, lam, b = 3.5, 1.6, 2.0, 5.0, 2.0
    cfg = MCEMConfig(k_samples=20_000, sigma=sigma, lam=lam)
    state, (xs, y_means) = e_step(priv, (beta0, beta1), cfg, stream(80, "brute"),
                                   proposal=x_proposal(priv, cfg.lam))
    ys = per_draw(state.counts, y_means)
    w = draw_weights(state.counts, state.cell_weights)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=1e-12)

    xg = np.arange(61.0)
    yg = np.linspace(-60.0, 160.0, 44_001)
    for i in range(5):
        log_px = stats.poisson.logpmf(xg, lam) - np.abs(x_tilde[i] - xg) / b
        dens = (stats.norm.pdf(yg[None, :], beta0 + beta1 * xg[:, None], sigma)
                * np.exp(-np.abs(y_tilde[i] - yg) / b))
        mass = np.exp(log_px - log_px.max()) * integrate.trapezoid(dens, yg, axis=1)
        ey = integrate.trapezoid(dens * yg, yg, axis=1) / integrate.trapezoid(dens, yg, axis=1)
        exact = (mass @ xg / mass.sum(), mass @ ey / mass.sum())
        for col, truth in zip((xs[:, i], ys[:, i]), exact):
            mean = w[:, i] @ col
            se = math.sqrt(w[:, i] ** 2 @ (col - mean) ** 2)
            assert abs(mean - truth) <= 4 * se, (i, mean, truth, se)


def test_e_step_weights_normalize_and_ess_bounds():
    _, priv = reference_instance(62)
    cfg = MCEMConfig(k_samples=400)
    theta = (-3.0, 3.5)
    state, (x, y_means) = e_step(priv, theta, cfg, stream(62, "estep"),
                                  proposal=x_proposal(priv, cfg.lam))
    counts = state.counts
    assert counts.shape == state.cell_weights.shape == (10, state.support.size)
    assert (counts.sum(axis=1) == 400).all()
    # draws at one x value share a weight; a record's cells hold all its mass
    np.testing.assert_allclose(state.cell_weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (state.cell_weights[counts == 0] == 0).all()
    raw, mean_r, _ = log_importance_weights(priv, theta, state.support, counts, cfg.sigma)
    unnorm = raw + np.log(np.maximum(counts, 1))
    np.testing.assert_allclose(
        state.cell_weights[counts > 0],
        (counts * np.exp(raw - special.logsumexp(unnorm, axis=1, keepdims=True)))[counts > 0],
        rtol=1e-12,
    )
    w = draw_weights(counts, state.cell_weights)
    assert w.shape == (400, 10)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    per_record = 1.0 / (w**2).sum(axis=0)
    assert 1.0 <= state.ess <= 400.0
    assert state.ess == pytest.approx(per_record.min(), rel=1e-12)
    # the x draws are the support values, in support order per record
    assert x.shape == (400, 10)
    np.testing.assert_array_equal(
        x, per_draw(counts, np.broadcast_to(state.support, counts.shape))
    )
    assert (np.diff(x, axis=0) >= 0).all()
    # y is not drawn: each cell carries its conditional mean
    np.testing.assert_allclose(y_means, theta[0] + theta[1] * state.support + mean_r,
                               rtol=1e-12, atol=1e-12)


def test_e_step_deterministic_per_stream():
    _, priv = reference_instance(63)
    cfg = MCEMConfig(k_samples=200)
    proposal = x_proposal(priv, cfg.lam)
    s1, _ = e_step(priv, (-3.0, 3.5), cfg, stream(63, "edet"), proposal=proposal)
    s2, _ = e_step(priv, (-3.0, 3.5), cfg, stream(63, "edet"), proposal=proposal)
    np.testing.assert_array_equal(s1.counts, s2.counts)
    np.testing.assert_array_equal(s1.cell_weights, s2.cell_weights)
    assert s1.ess == s2.ess


def test_e_step_rejects_nonfinite_theta():
    _, priv = reference_instance(64)
    cfg = MCEMConfig(k_samples=10)
    with pytest.raises(ValueError):
        e_step(priv, (math.nan, 1.0), cfg, stream(64, "nan"),
               proposal=x_proposal(priv, cfg.lam))


def test_e_step_degenerate_weights_error():
    # a release so far out that the x proposal's support passes its cap
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(10_000.0))
    priv = PrivatizedDataset(
        x_tilde=np.full(3, 1e308),
        y_tilde=np.zeros(3),
        spec_x=spec,
        spec_y=spec,
        parent_seed=0,
    )
    cfg = MCEMConfig(k_samples=16)
    with np.errstate(over="ignore"), pytest.raises(DegenerateWeightsError):
        e_step(priv, (0.0, 1.0), cfg, stream(65, "degen"), proposal=x_proposal(priv, cfg.lam))


def test_mcem_refuses_a_y_release_it_cannot_model():
    # A double-geometric y release would be read through its pmf at
    # non-integer differences; privatize_vector cannot even make one from a
    # real-valued y.  The release refuses it when built, so neither MCEM
    # entry point can be handed one.
    _, priv = reference_instance(81, n=4, eps=1.0)
    dg = MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(1.0))
    with pytest.raises(UnsupportedFamilyError, match="Laplace y release"):
        PrivatizedDataset(x_tilde=priv.x_tilde, y_tilde=np.round(priv.y_tilde),
                          spec_x=priv.spec_x, spec_y=dg, parent_seed=81)


def test_run_mcem_reads_a_double_geometric_x_release():
    # the x release may be double geometric: it enters through x_proposal
    data = gen_confidential(10, REF_PARAMS, stream(82, "dgx"), seed=82)
    spec_x = MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(1.0))
    spec_y = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(
        x_tilde=privatize_vector(data.x, spec_x, stream(82, "dgx-x")),
        y_tilde=privatize_vector(data.y, spec_y, stream(82, "dgx-y")),
        spec_x=spec_x, spec_y=spec_y, parent_seed=82,
    )
    res = run_mcem(priv, MCEMConfig(k_samples=500, max_iter=5), seed=4)
    assert np.isfinite([res.fit.beta0_hat, res.fit.beta1_hat]).all()
    proposal = x_proposal(priv, REF_PARAMS.lam)
    state, (x, _) = e_step(priv, (res.fit.beta0_hat, res.fit.beta1_hat),
                           MCEMConfig(k_samples=500), stream(82, "dgx-e"), proposal=proposal)
    _, log_q, _ = proposal
    assert (state.counts[np.exp(log_q) == 0] == 0).all()
    assert 1.0 <= state.ess <= 500.0


def test_e_step_ess_diagnostic_at_reference_config():
    # fixed-seed diagnostic: median ESS fraction over six instances
    fracs = []
    for sd in range(6):
        data = gen_confidential(10, REF_PARAMS, stream(600 + sd, "ess"), seed=600 + sd)
        priv = privatize_dataset(
            data, PrivacyBudget(0.25), PrivacyBudget(0.25), stream(600 + sd, "ess-n")
        )
        fit = ols(priv.x_tilde, priv.y_tilde)
        cfg = MCEMConfig()
        st, _ = e_step(
            priv, (fit.beta0_hat, fit.beta1_hat), cfg, stream(600 + sd, "ess-e"),
            proposal=x_proposal(priv, cfg.lam),
        )
        fracs.append(st.ess / 5000.0)
    assert np.median(fracs) > 1e-3


def test_m_step_single_sample_equals_ols():
    rng = stream(66, "mstep1")
    x = rng.poisson(10.0, 8)
    y = -5.0 + 4.0 * x + rng.normal(0.0, 5.0, 8)
    beta0, beta1 = m_step(point_state(x, y, theta=(0.3, 1.7)))
    fit = ols(x.astype(float), y)
    assert beta0 == pytest.approx(fit.beta0_hat, rel=1e-10)
    assert beta1 == pytest.approx(fit.beta1_hat, rel=1e-10)


def test_m_step_identical_samples_equal_weights():
    rng = stream(67, "mstep2")
    x = rng.poisson(10.0, 6)
    y = 1.0 + 0.5 * x + rng.normal(0.0, 1.0, 6)
    beta0, beta1 = m_step(point_state(x, y, k=5))
    fit = ols(x.astype(float), y)
    assert beta0 == pytest.approx(fit.beta0_hat, rel=1e-10)
    assert beta1 == pytest.approx(fit.beta1_hat, rel=1e-10)


def test_m_step_is_weighted_least_squares_on_cells():
    # The update regresses each cell's E[y | x] on its x, weighted by the
    # cell's posterior mass; the conditional variance of y does not enter.
    rng = stream(69, "mstep4")
    counts = rng.integers(0, 4, (6, 12))
    counts[:, 5] += 1
    theta = (0.5, 1.5)
    state = table_state(counts, rng.normal(0.0, 1.0, (6, 12)),
                        rng.normal(0.0, 2.0, (6, 12)), rng.random((6, 12)), theta)
    beta0, beta1 = m_step(state)
    root_p = np.sqrt(state.cell_weights.ravel())
    xs = np.tile(state.support, 6)
    ys = theta[0] + theta[1] * xs + state.mean_r.ravel()
    design = np.column_stack([np.ones_like(xs), xs]) * root_p[:, None]
    coef = np.linalg.lstsq(design, ys * root_p, rcond=None)[0]
    np.testing.assert_allclose((beta0, beta1), coef, rtol=1e-10)


def test_m_step_zero_weight_sample_is_ignored():
    # A value drawn but with a raw weight that underflows, and values not
    # drawn at all, carry no mass whatever moments they hold.
    rng = stream(68, "mstep3")
    x = rng.poisson(10.0, 6)
    y = 2.0 - 1.0 * x + rng.normal(0.0, 1.0, 6)
    base = point_state(x, y)
    counts = np.hstack([base.counts, np.full((6, 1), 3)])
    raw = np.zeros(counts.shape)
    raw[:, -1] = -1e3
    mean_r = np.hstack([base.mean_r, np.full((6, 1), 1e6)])
    mean_r[counts == 0] = -1e6
    beta0, beta1 = m_step(table_state(counts, raw, mean_r, theta=base.theta))
    fit = ols(x.astype(float), y)
    assert beta0 == pytest.approx(fit.beta0_hat, rel=1e-10)
    assert beta1 == pytest.approx(fit.beta1_hat, rel=1e-10)


def test_m_step_degenerate_design():
    with pytest.raises(DegenerateDesignError):
        m_step(point_state(np.full(5, 7), np.arange(5.0)))


def test_observed_fisher_single_sample_at_its_ols():
    rng = stream(69, "fish1")
    x = rng.poisson(10.0, 9)
    y = -5.0 + 4.0 * x + rng.normal(0.0, 5.0, 9)
    fit = ols(x.astype(float), y)
    fisher = observed_fisher(point_state(x, y, theta=(fit.beta0_hat, fit.beta1_hat)), 5.0)
    # one x value per record and y known there: no score variance, so only
    # the complete-data information survives
    info = np.array([[9.0, x.sum()], [x.sum(), (x**2).sum()]]) / 25.0
    np.testing.assert_allclose(fisher, info, rtol=1e-8)


def test_observed_fisher_identical_samples_is_complete_data_info():
    rng = stream(70, "fish2")
    x = rng.poisson(10.0, 7)
    y = 1.0 + 2.0 * x + rng.normal(0.0, 1.0, 7)
    fisher = observed_fisher(point_state(x, y, theta=(0.3, 1.7), k=4), 3.0)
    info = np.array([[7.0, x.sum()], [x.sum(), (x**2).sum()]]) / 9.0
    np.testing.assert_allclose(fisher, info, rtol=1e-9, atol=1e-9)


def test_observed_fisher_subtracts_conditional_y_variance():
    # y unknown given x: the score (r, x r) / sigma^2 varies with r
    rng = stream(71, "fish5")
    x = rng.poisson(10.0, 5)
    v = rng.random(5) * 3.0
    state = point_state(x, 1.0 + 2.0 * x)
    var_r = np.zeros(state.counts.shape)
    var_r[np.arange(5), x] = v
    state = table_state(state.counts, mean_r=state.mean_r, var_r=var_r, theta=state.theta)
    fisher = observed_fisher(state, 2.0)
    info = np.array([[5.0, x.sum()], [x.sum(), (x**2).sum()]]) / 4.0
    lost = np.array([[v.sum(), v @ x], [v @ x, v @ x**2]]) / 16.0
    np.testing.assert_allclose(fisher, info - lost, rtol=1e-12)


def test_observed_fisher_is_symmetric():
    _, priv = reference_instance(71, n=6)
    cfg = MCEMConfig(k_samples=300)
    state, _ = e_step(priv, (-4.0, 3.8), cfg, stream(71, "fish3"),
                      proposal=x_proposal(priv, cfg.lam))
    fisher = observed_fisher(state, cfg.sigma)
    np.testing.assert_array_equal(fisher, fisher.T)


def test_observed_fisher_sums_per_record_score_variances():
    # Louis's identity with the score variance summed over records, and the
    # mean score with its Monte Carlo SE, against a draw-by-draw evaluation:
    # given x, the score (r, x r) / sigma^2 has mean (m, x m) / sigma^2 and
    # second moment (m^2 + v) [[1, x], [x, x^2]] / sigma^4.
    rng = stream(79, "fish4")
    n, size, sigma, theta = 4, 15, 2.0, (0.5, 1.5)
    counts = rng.multinomial(40, np.full(size, 1.0 / size), size=n)
    state = table_state(counts, rng.normal(0.0, 1.0, (n, size)),
                        rng.normal(0.0, 3.0, (n, size)), 4.0 * rng.random((n, size)), theta)
    fisher = observed_fisher(state, sigma)
    w = draw_weights(counts, state.cell_weights)
    xs = per_draw(counts, np.broadcast_to(state.support, counts.shape))
    m = per_draw(counts, state.mean_r)
    v = per_draw(counts, state.var_r)
    expected = np.array([[n, (w * xs).sum()], [(w * xs).sum(), (w * xs**2).sum()]])
    expected /= sigma**2
    for i in range(n):
        scores = np.stack([m[:, i], xs[:, i] * m[:, i]], axis=-1) / sigma**2
        mean = w[:, i] @ scores
        outer = np.stack([np.ones_like(xs[:, i]), xs[:, i], xs[:, i], xs[:, i] ** 2], -1)
        second = (w[:, i] * (m[:, i] ** 2 + v[:, i])) @ outer / sigma**4
        expected -= second.reshape(2, 2) - np.outer(mean, mean)
    np.testing.assert_allclose(fisher, expected, rtol=1e-10)

    mean, se, size = _mean_score(state, sigma)
    for j, score in enumerate((m / sigma**2, xs * m / sigma**2)):
        centre = (w * score).sum(axis=0)
        assert mean[j] == pytest.approx(centre.sum(), rel=1e-12)
        assert size[j] == pytest.approx(np.abs(centre).sum(), rel=1e-12)
        assert se[j] == pytest.approx(math.sqrt((w**2 * (score - centre) ** 2).sum()),
                                      rel=1e-12)


def test_fisher_positive_definite_in_most_replicates():
    # fresh data per replicate at the heavy-noise configuration; the
    # measured rate over these 20 fixed seeds is 0.9
    flags = []
    for r in range(20):
        data = gen_confidential(10, REF_PARAMS, stream(500, "pdrate", r), seed=500)
        priv = privatize_dataset(
            data, PrivacyBudget(0.25), PrivacyBudget(0.25), stream(500, "pdrate-n", r)
        )
        flags.append(run_mcem(priv, MCEMConfig(), seed=1000 + r).fisher_pd)
    assert np.mean(flags) >= 0.75


def test_ellipse_validation_and_geometry():
    with pytest.raises(ValueError):
        Ellipse((0.0, 0.0), np.eye(3), 1.0)
    with pytest.raises(ValueError):
        Ellipse((0.0, 0.0), np.eye(2), 0.0)
    circle = confidence_ellipse((0.0, 0.0), np.eye(2), alpha=0.05)
    assert circle.level == pytest.approx(5.99146, abs=5e-6)
    r = math.sqrt(circle.level)
    assert circle.contains((r - 1e-6, 0.0))
    assert not circle.contains((r + 1e-6, 0.0))
    assert circle.area == pytest.approx(math.pi * circle.level, rel=1e-12)


def test_confidence_ellipse_near_one_alpha_degenerates():
    ell = confidence_ellipse((1.0, 2.0), np.eye(2), alpha=1.0 - 1e-12)
    assert ell.contains((1.0, 2.0))
    assert not ell.contains((1.0 + 1e-5, 2.0))


def test_confidence_ellipse_rejects_non_pd():
    with pytest.raises(NonPDInformationError):
        confidence_ellipse((0.0, 0.0), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        confidence_ellipse((0.0, 0.0), np.eye(2), alpha=0.0)


def test_ellipse_containment_rotation_invariant():
    theta = 0.77
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    shape = np.array([[2.0, 0.3], [0.3, 0.5]])
    ell = Ellipse((0.0, 0.0), shape, 5.99146)
    rotated = Ellipse((0.0, 0.0), rot @ shape @ rot.T, 5.99146)
    rng = stream(72, "rot")
    for _ in range(50):
        p = rng.normal(0.0, 3.0, 2)
        assert ell.contains(p) == rotated.contains(rot @ p)


@pytest.fixture(scope="module")
def fit_mcem_files(tmp_path_factory):
    """The report and --trace lines of `tdp fit-mcem`, with the library's run."""
    tmp = tmp_path_factory.mktemp("fit-mcem")
    env, report, trace = tmp / "env.json", tmp / "report.json", tmp / "trace.csv"
    assert main(["simulate", "--n", "12", "--sigma", "2", "--lam", "5", "--epsilon-x", "1",
                 "--epsilon-y", "1", "--seed", "5", "--output", str(env)]) == 0
    assert main(["fit-mcem", "--input", str(env), "--seed", "7", "--k-samples", "500",
                 "--max-iter", "4", "--output", str(report), "--trace", str(trace)]) == 0

    def body(path):
        return json.loads("\n".join(
            ln for ln in path.read_text().splitlines() if not ln.startswith("#")))

    data = dataset_from_dict(body(env)["privatized"])
    res = run_mcem(data, MCEMConfig(sigma=2.0, lam=5.0, k_samples=500, max_iter=4), 7)
    return body(report), trace.read_text().splitlines(), res


def test_ellipse_json_round_trip(fit_mcem_files):
    report, _, res = fit_mcem_files
    ell = res.ellipse
    assert ell is not None
    assert report["ellipse"] == {"center": list(ell.center), "shape": ell.shape.tolist(),
                                 "level": ell.level}


def test_run_mcem_deterministic():
    _, priv = reference_instance(73)
    cfg = MCEMConfig(k_samples=500, max_iter=6)
    a = run_mcem(priv, cfg, seed=9)
    b = run_mcem(priv, cfg, seed=9)
    fields = ("beta0_hat", "beta1_hat", "residual_variance", "method", "n")
    assert [getattr(a.fit, f) for f in fields] == [getattr(b.fit, f) for f in fields]
    np.testing.assert_array_equal(a.fit.covariance, b.fit.covariance)
    np.testing.assert_array_equal(a.trace, b.trace)
    np.testing.assert_array_equal(a.fisher, b.fisher)
    assert a.converged == b.converged


def test_run_mcem_trace_and_flags():
    _, priv = reference_instance(74)
    cfg = MCEMConfig(k_samples=400, max_iter=5)
    res = run_mcem(priv, cfg, seed=10)
    assert res.trace.shape[1] == 4 and 1 <= len(res.trace) <= 5
    np.testing.assert_array_equal(res.trace[:, 0], np.arange(1, len(res.trace) + 1))
    assert res.fit.method == "mcem"
    assert res.fit.n == 10
    assert isinstance(res.converged, bool)
    assert res.mean_score.shape == (2,)
    assert np.all(res.mean_score_se > 0)
    if res.fisher_pd:
        assert res.ellipse is not None
        np.testing.assert_allclose(
            res.fit.covariance @ res.fisher, np.eye(2), atol=1e-8
        )
    else:
        assert res.ellipse is None
        assert np.isnan(res.fit.covariance).all()


def test_run_mcem_keeps_k_samples():
    # no ESS-driven growth: every E-step draws k_samples per record
    _, priv = reference_instance(75)
    cfg = MCEMConfig(k_samples=64, max_iter=3)
    res = run_mcem(priv, cfg, seed=11)
    assert res.k_final == 64
    assert ((1.0 <= res.trace[:, 3]) & (res.trace[:, 3] <= 64.0)).all()


def test_mean_score_se_matches_its_spread_over_seeds():
    # The stop rule compares the mean score with its reported SE, so that SE
    # must be the score's real Monte Carlo spread: on the acceptance suite's
    # n=4 release, the SD of the mean score over 200 streams lies within
    # [0.8, 1.25] times the median SE at a fixed theta near the optimum.
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5))
    toy = PrivatizedDataset(
        x_tilde=np.array([8.747, 7.655, 3.661, 4.664]),
        y_tilde=np.array([12.485, 19.217, 7.683, 11.223]),
        spec_x=spec, spec_y=spec, parent_seed=0,
    )
    cfg = MCEMConfig(k_samples=5000, sigma=2.0, lam=5.0)
    proposal = x_proposal(toy, cfg.lam)
    scores, ses = [], []
    for sd in range(200):
        state, _ = e_step(toy, (3.5, 1.65), cfg, stream(sd, "se-spread"), proposal=proposal)
        score, se, _ = _mean_score(state, cfg.sigma)
        scores.append(score)
        ses.append(se)
    ratio = np.std(scores, axis=0, ddof=1) / np.median(ses, axis=0)
    assert ((0.8 <= ratio) & (ratio <= 1.25)).all(), ratio


def test_run_mcem_converges_on_the_ellipse_study_design():
    # Test 07's design at both budgets: the score rule stops at least 90%
    # of the fits before the iteration cap.
    seed, cfg = 6, MCEMConfig()
    conf = gen_confidential(
        10, REF_PARAMS, stream(seed, "ellipse-study", "confidential"), seed=seed
    )
    results = []
    for eps in (0.25, 1.0):
        for r in range(25):
            priv = privatize_dataset(
                conf, PrivacyBudget(eps), PrivacyBudget(eps),
                stream(seed, "ellipse-study", "privatize", r),
            )
            results.append(run_mcem(priv, cfg, derive_seed(seed, "ellipse-study", "mcem", r)))
    assert sum(res.converged for res in results) >= 0.9 * len(results)
    assert all(len(res.trace) < cfg.max_iter for res in results if res.converged)


def test_run_mcem_near_noise_free_release():
    # With near-zero noise the naive start already matches the
    # confidential fit to 1e-3.  The x proposal puts all its mass on the
    # released x, and y given x and the release is pinned to the release
    # within its noise scale (sigma / b = 5e6, where a naive Mills ratio
    # loses every digit), so EM stays at the confidential fit.
    data = gen_confidential(10, REF_PARAMS, stream(900, "nf"), seed=900)
    priv = privatize_dataset(
        data, PrivacyBudget(1e6), PrivacyBudget(1e6), stream(900, "nf-n")
    )
    conf = ols(data.x, data.y)
    naive = ols(priv.x_tilde, priv.y_tilde)
    assert abs(naive.beta0_hat - conf.beta0_hat) < 1e-3
    assert abs(naive.beta1_hat - conf.beta1_hat) < 1e-3
    res = run_mcem(priv, MCEMConfig(k_samples=5000, max_iter=25), seed=77)
    assert abs(res.fit.beta0_hat - conf.beta0_hat) < 1.5
    assert abs(res.fit.beta1_hat - conf.beta1_hat) < 0.5
    # Every draw lands on the released x, so the score SE is exactly 0 and
    # only the rounding floor lets the rule stop.
    np.testing.assert_array_equal(res.mean_score_se, 0.0)
    assert res.converged
    assert len(res.trace) < 25


def test_trace_csv_round_trip(fit_mcem_files):
    _, lines, res = fit_mcem_files
    assert lines[1] == "iter,beta0,beta1,ess"
    assert len(lines) == len(res.trace) + 2
    cells = [ln.split(",") for ln in lines[2:]]
    assert cells[0][0] == "1"
    assert [[float(c) for c in row] for row in cells] == res.trace.tolist()


def test_ellipse_study_smoke():
    cfg = MCEMConfig(k_samples=300, max_iter=4)
    rows, rates = ellipse_study(
        REF_PARAMS, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), replicates=2, seed=5,
        config=cfg,
    )
    assert [(r.replicate, r.method) for r in rows] == [
        (0, "naive"), (0, "mcem"), (1, "naive"), (1, "mcem")
    ]
    assert set(rates) == {"naive", "mcem", "mcem_defined", "mcem_nonpd_fraction"}
    assert 0.0 <= rates["naive"] <= 1.0

    again, again_rates = ellipse_study(
        REF_PARAMS, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), replicates=2, seed=5,
        config=cfg,
    )
    assert again == rows
    assert again_rates == rates


def test_ellipse_study_naive_only():
    rows, rates = ellipse_study(
        REF_PARAMS, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), replicates=3, seed=6,
        config=MCEMConfig(), methods=("naive",),
    )
    assert all(r.method == "naive" for r in rows)
    assert set(rates) == {"naive"}


def test_ellipse_study_builds_both_ellipses_at_config_alpha():
    # The naive ellipse's level is the chi-square(2) quantile at
    # 1 - config.alpha, as the MCEM ellipse's is, so only the area changes.
    def naive_areas(alpha):
        rows, _ = ellipse_study(
            REF_PARAMS, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), replicates=3, seed=6,
            config=MCEMConfig(alpha=alpha), methods=("naive",),
        )
        return np.array([row.area for row in rows])

    ratio = chi2_2_quantile(0.90) / chi2_2_quantile(0.95)
    np.testing.assert_allclose(naive_areas(0.10) / naive_areas(0.05), ratio, rtol=1e-12)


def test_ellipse_study_argument_errors():
    budget, config = PrivacyBudget(0.5), MCEMConfig()
    with pytest.raises(ValueError):
        ellipse_study(REF_PARAMS, 8, budget, budget, 0, 1, config)
    with pytest.raises(ValueError):
        ellipse_study(REF_PARAMS, 8, budget, budget, 1, 1, config, methods=("abc",))
    with pytest.raises(ValueError, match="naive, mcem"):
        ellipse_study(REF_PARAMS, 8, budget, budget, 1, 1, config, methods=())
