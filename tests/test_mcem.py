import json
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from transparent_dp.errors import (
    DegenerateDesignError,
    DegenerateWeightsError,
    NonPDInformationError,
)
from transparent_dp.mechanisms import (
    Family,
    MechanismSpec,
    PrivacyBudget,
    double_geometric_log_pmf,
    laplace_log_density,
)
from transparent_dp.mcem import (
    Ellipse,
    MCEMConfig,
    MCEMState,
    confidence_ellipse,
    e_step,
    ellipse_study,
    log_importance_weights,
    m_step,
    observed_fisher,
    run_mcem,
    study_to_csv,
    trace_to_csv,
    x_proposal,
)
from transparent_dp.naive_fit import ols
from transparent_dp.rng import stream
from transparent_dp.simulate import (
    PrivatizedDataset,
    RegressionParams,
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


def single_sample_state(n, k=1):
    # every record's weight on draw 0; the other draws underflow to exactly zero
    lw = np.full((k, n), -1e3)
    lw[0] = 0.0
    return MCEMState(
        iteration=1,
        theta=(0.0, 1.0),
        log_weights=lw,
        ess=1.0,
        converged=False,
        max_raw_log_weight=0.0,
    )


def equal_weight_state(k, n):
    lw = np.full((k, n), -math.log(k))
    return MCEMState(
        iteration=1,
        theta=(0.0, 1.0),
        log_weights=lw,
        ess=float(k),
        converged=False,
        max_raw_log_weight=0.0,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        MCEMConfig(k_samples=1)
    with pytest.raises(ValueError):
        MCEMConfig(max_iter=0)
    with pytest.raises(ValueError):
        MCEMConfig(tol=0.0)
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
    assert cfg.tol == 1e-3


def test_log_importance_weights_match_mechanism_density():
    # per record: the y mechanism density of the release at each draw
    _, priv = reference_instance(60, n=4)
    rng = stream(60, "liw")
    ys = rng.normal(0.0, 5.0, (3, 4))
    raw = log_importance_weights(ys, priv)
    assert raw.shape == (3, 4)
    for k in range(3):
        for i in range(4):
            expected = laplace_log_density(ys[k, i] - priv.y_tilde[i], priv.spec_y.scale)
            assert raw[k, i] == pytest.approx(expected, rel=1e-12)


def test_log_importance_weights_read_the_declared_family():
    # A double-geometric x release enters through the x proposal, which
    # is Pois(s; lam) times the release's own pmf, normalized per record.
    _, priv = reference_instance(62, n=4, eps=1.0)
    dg = MechanismSpec(Family.DOUBLE_GEOMETRIC, 2.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(x_tilde=np.round(priv.x_tilde), y_tilde=priv.y_tilde,
                             spec_x=dg, spec_y=priv.spec_y, parent_seed=62)
    support, log_q = x_proposal(priv, 10.0)
    assert support[0] == 0.0 and np.all(np.diff(support) == 1.0)
    for i in range(4):
        unnorm = stats.poisson.logpmf(support, 10.0) + np.array([
            double_geometric_log_pmf(int(priv.x_tilde[i] - s), dg.budget, 2)
            for s in support
        ])
        expected = unnorm - special.logsumexp(unnorm)
        np.testing.assert_allclose(log_q[i], expected, rtol=1e-12, atol=1e-12)
    ys = stream(62, "liw-dg").normal(0.0, 5.0, (3, 4))
    np.testing.assert_array_equal(
        log_importance_weights(ys, priv),
        laplace_log_density(ys - priv.y_tilde, priv.spec_y.scale),
    )


def test_exact_match_attains_maximal_weight():
    _, priv = reference_instance(61, n=5)
    rng = stream(61, "match")
    ys = rng.normal(0.0, 5.0, (10, 5))
    ys[0] = priv.y_tilde
    raw = log_importance_weights(ys, priv)
    peak = laplace_log_density(0.0, priv.spec_y.scale)
    np.testing.assert_allclose(raw[0], peak, rtol=1e-12)
    assert (raw.argmax(axis=0) == 0).all()


@pytest.mark.parametrize("eps", [0.25, 1.0, 5.0])
def test_x_proposal_truncation_matches_wide_support(eps):
    # The truncated support loses no mass a support of 0..2000 would see.
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(eps))
    x_tilde = np.array([-20.0, 60.0, 200.0])
    priv = PrivatizedDataset(x_tilde=x_tilde, y_tilde=np.zeros(3), spec_x=spec,
                             spec_y=spec, parent_seed=0)
    support, log_q = x_proposal(priv, 10.0)
    assert support[-1] >= 200.0
    wide = np.arange(2001.0)
    ref = stats.poisson.logpmf(wide, 10.0) - np.abs(x_tilde[:, None] - wide) * eps
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
    state, (xs, ys) = e_step(priv, (beta0, beta1), cfg, stream(80, "brute"))
    w = state.weights
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
    state, samples = e_step(priv, (-3.0, 3.5), cfg, stream(62, "estep"))
    w = state.weights
    assert w.shape == (400, 10)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    per_record = 1.0 / (w**2).sum(axis=0)
    assert 1.0 <= state.ess <= 400.0
    assert state.ess == pytest.approx(per_record.min(), rel=1e-12)
    assert samples[0].shape == (400, 10)
    assert samples[1].shape == (400, 10)
    x = samples[0]
    assert (x >= 0).all() and (x == np.round(x)).all()


def test_e_step_deterministic_per_stream():
    _, priv = reference_instance(63)
    cfg = MCEMConfig(k_samples=200)
    s1, _ = e_step(priv, (-3.0, 3.5), cfg, stream(63, "edet"))
    s2, _ = e_step(priv, (-3.0, 3.5), cfg, stream(63, "edet"))
    np.testing.assert_array_equal(s1.log_weights, s2.log_weights)
    assert s1.ess == s2.ess


def test_e_step_rejects_nonfinite_theta():
    _, priv = reference_instance(64)
    with pytest.raises(ValueError):
        e_step(priv, (math.nan, 1.0), MCEMConfig(k_samples=10), stream(64, "nan"))


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
    with np.errstate(over="ignore"), pytest.raises(DegenerateWeightsError):
        e_step(priv, (0.0, 1.0), MCEMConfig(k_samples=16), stream(65, "degen"))


def test_e_step_ess_diagnostic_at_reference_config():
    # fixed-seed diagnostic: median ESS fraction over six instances
    fracs = []
    for sd in range(6):
        data = gen_confidential(10, REF_PARAMS, stream(600 + sd, "ess"), seed=600 + sd)
        priv = privatize_dataset(
            data, PrivacyBudget(0.25), PrivacyBudget(0.25), stream(600 + sd, "ess-n")
        )
        fit = ols(priv.x_tilde, priv.y_tilde)
        st, _ = e_step(
            priv, (fit.beta0_hat, fit.beta1_hat), MCEMConfig(), stream(600 + sd, "ess-e")
        )
        fracs.append(st.ess / 5000.0)
    assert np.median(fracs) > 1e-3


def test_m_step_single_sample_equals_ols():
    rng = stream(66, "mstep1")
    x = rng.poisson(10.0, 8).astype(float)
    y = -5.0 + 4.0 * x + rng.normal(0.0, 5.0, 8)
    state = single_sample_state(8)
    beta0, beta1 = m_step(state, (x[None, :], y[None, :]))
    fit = ols(x, y)
    assert beta0 == pytest.approx(fit.beta0_hat, rel=1e-12)
    assert beta1 == pytest.approx(fit.beta1_hat, rel=1e-12)


def test_m_step_identical_samples_equal_weights():
    rng = stream(67, "mstep2")
    x = rng.poisson(10.0, 6).astype(float)
    y = 1.0 + 0.5 * x + rng.normal(0.0, 1.0, 6)
    xs = np.tile(x, (5, 1))
    ys = np.tile(y, (5, 1))
    beta0, beta1 = m_step(equal_weight_state(5, 6), (xs, ys))
    fit = ols(x, y)
    assert beta0 == pytest.approx(fit.beta0_hat, rel=1e-10)
    assert beta1 == pytest.approx(fit.beta1_hat, rel=1e-10)


def test_m_step_zero_weight_sample_is_ignored():
    # Weights are per record: records 0, 2, 4 keep draw 0 and records
    # 1, 3, 5 keep draw 1, so the update is OLS on that mix of draws.
    rng = stream(68, "mstep3")
    x1 = rng.poisson(10.0, 6).astype(float)
    y1 = 2.0 - 1.0 * x1 + rng.normal(0.0, 1.0, 6)
    xs = np.vstack([x1, x1 + 3.0])
    ys = np.vstack([y1, -y1])
    keep = np.arange(6) % 2
    state = single_sample_state(6, k=2)
    state.log_weights[:] = np.where(np.arange(2)[:, None] == keep, 0.0, -1e3)
    beta0, beta1 = m_step(state, (xs, ys))
    fit = ols(xs[keep, np.arange(6)], ys[keep, np.arange(6)])
    assert beta0 == pytest.approx(fit.beta0_hat, rel=1e-12)
    assert beta1 == pytest.approx(fit.beta1_hat, rel=1e-12)


def test_m_step_degenerate_design():
    xs = np.full((1, 5), 7.0)
    ys = np.arange(5.0)[None, :]
    with pytest.raises(DegenerateDesignError):
        m_step(single_sample_state(5), (xs, ys))


def test_observed_fisher_single_sample_at_its_ols():
    rng = stream(69, "fish1")
    x = rng.poisson(10.0, 9).astype(float)
    y = -5.0 + 4.0 * x + rng.normal(0.0, 5.0, 9)
    fit = ols(x, y)
    cfg = MCEMConfig(k_samples=2, sigma=5.0)
    fisher = observed_fisher(
        single_sample_state(9), (x[None, :], y[None, :]), (fit.beta0_hat, fit.beta1_hat), cfg
    )
    # one draw per record has no score variance, so only the complete-data
    # information survives
    info = np.array([[9.0, x.sum()], [x.sum(), (x**2).sum()]]) / 25.0
    np.testing.assert_allclose(fisher, info, rtol=1e-8)


def test_observed_fisher_identical_samples_is_complete_data_info():
    rng = stream(70, "fish2")
    x = rng.poisson(10.0, 7).astype(float)
    y = 1.0 + 2.0 * x + rng.normal(0.0, 1.0, 7)
    xs = np.tile(x, (4, 1))
    ys = np.tile(y, (4, 1))
    cfg = MCEMConfig(k_samples=4, sigma=3.0)
    fisher = observed_fisher(equal_weight_state(4, 7), (xs, ys), (0.3, 1.7), cfg)
    info = np.array([[7.0, x.sum()], [x.sum(), (x**2).sum()]]) / 9.0
    np.testing.assert_allclose(fisher, info, rtol=1e-9, atol=1e-9)


def test_observed_fisher_is_symmetric():
    _, priv = reference_instance(71, n=6)
    cfg = MCEMConfig(k_samples=300)
    state, samples = e_step(priv, (-4.0, 3.8), cfg, stream(71, "fish3"))
    fisher = observed_fisher(state, samples, (-4.0, 3.8), cfg)
    np.testing.assert_array_equal(fisher, fisher.T)


def test_observed_fisher_sums_per_record_score_variances():
    # Louis's identity with the score variance summed over records,
    # against a dense (K, n, 2) evaluation.
    rng = stream(79, "fish4")
    k, n, sigma, theta = 50, 4, 2.0, (0.5, 1.5)
    xs = rng.poisson(5.0, (k, n)).astype(float)
    ys = theta[0] + theta[1] * xs + rng.normal(0.0, 3.0, (k, n))
    w = rng.random((k, n))
    w /= w.sum(axis=0)
    state = MCEMState(1, theta, np.log(w), 1.0, False, 0.0)
    fisher = observed_fisher(state, (xs, ys), theta, MCEMConfig(sigma=sigma))
    r = (ys - theta[0] - theta[1] * xs) / sigma**2
    scores = np.stack([r, xs * r], axis=-1)
    expected = np.array([[n, (w * xs).sum()], [(w * xs).sum(), (w * xs**2).sum()]])
    expected /= sigma**2
    for i in range(n):
        mean = w[:, i] @ scores[:, i]
        second = (w[:, i, None, None] * scores[:, i, :, None] * scores[:, i, None, :]).sum(0)
        expected -= second - np.outer(mean, mean)
    np.testing.assert_allclose(fisher, expected, rtol=1e-10)


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


def test_ellipse_json_round_trip():
    ell = Ellipse((1.5, -2.0), np.array([[2.0, 0.1], [0.1, 1.0]]), 5.99146)
    obj = json.loads(ell.to_json())
    assert obj["center"] == [1.5, -2.0]
    assert obj["shape"] == [[2.0, 0.1], [0.1, 1.0]]
    assert obj["level"] == 5.99146


def test_run_mcem_deterministic():
    _, priv = reference_instance(73)
    cfg = MCEMConfig(k_samples=500, max_iter=6)
    a = run_mcem(priv, cfg, seed=9)
    b = run_mcem(priv, cfg, seed=9)
    assert a.fit.to_json() == b.fit.to_json()
    assert a.trace == b.trace
    np.testing.assert_array_equal(a.fisher, b.fisher)
    assert a.converged == b.converged


def test_run_mcem_trace_and_flags():
    _, priv = reference_instance(74)
    cfg = MCEMConfig(k_samples=400, max_iter=5)
    res = run_mcem(priv, cfg, seed=10)
    assert 1 <= len(res.trace) <= 5
    assert [row.iteration for row in res.trace] == list(range(1, len(res.trace) + 1))
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
    assert all(1.0 <= row.ess <= 64.0 for row in res.trace)


def test_run_mcem_near_noise_free_release():
    # With near-zero noise the naive start already matches the
    # confidential fit to 1e-3.  The x proposal puts all its mass on the
    # released x, and each record's weight falls on its draw of y closest
    # to the release (ESS 1), so EM stays at the confidential fit.
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


def test_trace_csv_round_trip():
    _, priv = reference_instance(76)
    res = run_mcem(priv, MCEMConfig(k_samples=300, max_iter=4), seed=12)
    text = trace_to_csv(res.trace)
    lines = text.splitlines()
    assert lines[0] == "iter,beta0,beta1,ess,max_log_weight"
    assert len(lines) == len(res.trace) + 1
    cells = lines[1].split(",")
    assert int(cells[0]) == 1
    assert float(cells[1]) == res.trace[0].beta0
    assert float(cells[4]) == res.trace[0].max_log_weight


def test_ellipse_study_smoke_and_csv():
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
    text = study_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "replicate,method,beta0,beta1,covered,area"
    assert len(lines) == 5
    assert lines[1].split(",")[1] == "naive"

    again, again_rates = ellipse_study(
        REF_PARAMS, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), replicates=2, seed=5,
        config=cfg,
    )
    assert again == rows
    assert again_rates == rates


def test_ellipse_study_naive_only():
    rows, rates = ellipse_study(
        REF_PARAMS, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), replicates=3, seed=6,
        methods=("naive",),
    )
    assert all(r.method == "naive" for r in rows)
    assert set(rates) == {"naive"}


def test_ellipse_study_argument_errors():
    with pytest.raises(ValueError):
        ellipse_study(REF_PARAMS, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), 0, 1)
    with pytest.raises(ValueError):
        ellipse_study(
            REF_PARAMS, 8, PrivacyBudget(0.5), PrivacyBudget(0.5), 1, 1, methods=("abc",)
        )
