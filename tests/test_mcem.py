import json
import math

import numpy as np
import pytest

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


def single_sample_state(n_weights=1):
    if n_weights == 1:
        lw = np.array([0.0])
    else:
        # second weight underflows to exactly zero
        lw = np.array([0.0] + [-1e3] * (n_weights - 1))
    w = np.exp(lw)
    ess = 1.0 / float((w**2).sum())
    return MCEMState(
        iteration=1,
        theta=(0.0, 1.0),
        log_weights=lw,
        ess=ess,
        converged=False,
        max_raw_log_weight=0.0,
    )


def equal_weight_state(k):
    lw = np.full(k, -math.log(k))
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
    with pytest.raises(ValueError):
        MCEMConfig(ess_floor=0.0)
    with pytest.raises(ValueError):
        MCEMConfig(alpha=1.0)
    with pytest.raises(ValueError):
        MCEMConfig(sigma=0.0)
    with pytest.raises(ValueError):
        MCEMConfig(lam=0.0)
    cfg = MCEMConfig()
    assert cfg.k_samples == 5000
    assert cfg.tol == 1e-3
    assert cfg.ess_floor == 0.01


def test_log_importance_weights_match_mechanism_density():
    _, priv = reference_instance(60, n=4)
    rng = stream(60, "liw")
    xs = rng.poisson(10.0, (3, 4)).astype(float)
    ys = rng.normal(0.0, 5.0, (3, 4))
    raw = log_importance_weights(xs, ys, priv)
    b_x, b_y = priv.spec_x.scale, priv.spec_y.scale
    for k in range(3):
        expected = sum(
            laplace_log_density(xs[k, i] - priv.x_tilde[i], b_x)
            + laplace_log_density(ys[k, i] - priv.y_tilde[i], b_y)
            for i in range(4)
        )
        assert raw[k] == pytest.approx(expected, rel=1e-12)


def test_log_importance_weights_read_the_declared_family():
    # A double-geometric x release is weighted by its own pmf, not the
    # Laplace density at the same scale (their constants differ).
    _, priv = reference_instance(62, n=4, eps=1.0)
    dg = MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(x_tilde=np.round(priv.x_tilde), y_tilde=priv.y_tilde,
                             spec_x=dg, spec_y=priv.spec_y, parent_seed=62)
    rng = stream(62, "liw-dg")
    xs = rng.poisson(10.0, (3, 4)).astype(float)
    ys = rng.normal(0.0, 5.0, (3, 4))
    raw = log_importance_weights(xs, ys, priv)
    for k in range(3):
        expected = sum(
            double_geometric_log_pmf(int(xs[k, i] - priv.x_tilde[i]), dg.budget)
            + laplace_log_density(ys[k, i] - priv.y_tilde[i], priv.spec_y.scale)
            for i in range(4)
        )
        assert raw[k] == pytest.approx(expected, rel=1e-12)


def test_exact_match_attains_maximal_weight():
    _, priv = reference_instance(61, n=5)
    rng = stream(61, "match")
    xs = rng.poisson(10.0, (10, 5)).astype(float)
    ys = rng.normal(0.0, 5.0, (10, 5))
    xs[0] = priv.x_tilde
    ys[0] = priv.y_tilde
    raw = log_importance_weights(xs, ys, priv)
    peak = 5 * (
        laplace_log_density(0.0, priv.spec_x.scale)
        + laplace_log_density(0.0, priv.spec_y.scale)
    )
    assert raw[0] == pytest.approx(peak, rel=1e-12)
    assert raw.argmax() == 0


def test_e_step_weights_normalize_and_ess_bounds():
    _, priv = reference_instance(62)
    cfg = MCEMConfig(k_samples=400)
    state, samples = e_step(priv, (-3.0, 3.5), cfg, stream(62, "estep"))
    w = state.weights
    assert abs(w.sum() - 1.0) < 1e-12
    assert 0.0 < state.ess <= 400.0
    assert state.ess == pytest.approx(1.0 / float((w**2).sum()), rel=1e-12)
    assert samples[0].shape == (400, 10)
    assert samples[1].shape == (400, 10)


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
    # releases so implausible that every log weight overflows to -inf
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
    state = single_sample_state()
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
    beta0, beta1 = m_step(equal_weight_state(5), (xs, ys))
    fit = ols(x, y)
    assert beta0 == pytest.approx(fit.beta0_hat, rel=1e-10)
    assert beta1 == pytest.approx(fit.beta1_hat, rel=1e-10)


def test_m_step_zero_weight_sample_is_ignored():
    rng = stream(68, "mstep3")
    x1 = rng.poisson(10.0, 6).astype(float)
    y1 = 2.0 - 1.0 * x1 + rng.normal(0.0, 1.0, 6)
    xs = np.vstack([x1, x1 + 3.0])
    ys = np.vstack([y1, -y1])
    beta0, beta1 = m_step(single_sample_state(2), (xs, ys))
    fit = ols(x1, y1)
    assert beta0 == pytest.approx(fit.beta0_hat, rel=1e-12)
    assert beta1 == pytest.approx(fit.beta1_hat, rel=1e-12)


def test_m_step_degenerate_design():
    xs = np.full((1, 5), 7.0)
    ys = np.arange(5.0)[None, :]
    with pytest.raises(DegenerateDesignError):
        m_step(single_sample_state(), (xs, ys))


def test_observed_fisher_single_sample_at_its_ols():
    rng = stream(69, "fish1")
    x = rng.poisson(10.0, 9).astype(float)
    y = -5.0 + 4.0 * x + rng.normal(0.0, 5.0, 9)
    fit = ols(x, y)
    cfg = MCEMConfig(k_samples=2, sigma=5.0)
    fisher = observed_fisher(
        single_sample_state(), (x[None, :], y[None, :]), (fit.beta0_hat, fit.beta1_hat), cfg
    )
    # mean score vanishes at the sample's own OLS solution, so only the
    # complete-data information survives
    info = np.array([[9.0, x.sum()], [x.sum(), (x**2).sum()]]) / 25.0
    np.testing.assert_allclose(fisher, info, rtol=1e-8)


def test_observed_fisher_identical_samples_is_complete_data_info():
    rng = stream(70, "fish2")
    x = rng.poisson(10.0, 7).astype(float)
    y = 1.0 + 2.0 * x + rng.normal(0.0, 1.0, 7)
    xs = np.tile(x, (4, 1))
    ys = np.tile(y, (4, 1))
    cfg = MCEMConfig(k_samples=4, sigma=3.0)
    fisher = observed_fisher(equal_weight_state(4), (xs, ys), (0.3, 1.7), cfg)
    info = np.array([[7.0, x.sum()], [x.sum(), (x**2).sum()]]) / 9.0
    np.testing.assert_allclose(fisher, info, rtol=1e-9, atol=1e-9)


def test_observed_fisher_is_symmetric():
    _, priv = reference_instance(71, n=6)
    cfg = MCEMConfig(k_samples=300)
    state, samples = e_step(priv, (-4.0, 3.8), cfg, stream(71, "fish3"))
    fisher = observed_fisher(state, samples, (-4.0, 3.8), cfg)
    np.testing.assert_array_equal(fisher, fisher.T)


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


def test_run_mcem_doubles_k_once_when_ess_low():
    _, priv = reference_instance(75)
    cfg = MCEMConfig(k_samples=64, max_iter=3, ess_floor=1.0)
    res = run_mcem(priv, cfg, seed=11)
    assert res.k_final == 128


def test_run_mcem_near_noise_free_release():
    # With near-zero noise the naive start already matches the
    # confidential fit to 1e-3.  The importance sampler itself degenerates
    # to the closest draw (ESS 1), so the EM estimate wanders at the scale
    # of single-draw OLS noise instead of shrinking to tol; other seeds
    # drift further (intercept error up to ~12 along the lam ridge).
    # Frozen-seed regression values here: d0=0.68, d1=0.25.
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
