import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from transparent_dp.bayes_abc import (
    DiscreteToy,
    PriorSpec,
    abc_exact_posterior,
    abc_toy_posterior,
    grid_posterior_oracle,
    misreported_mechanism_bias,
    mixture_posterior_oracle,
    posterior_fit,
    random_toy,
    samples_to_csv,
    table_to_csv,
    toy_privatized_observation,
)
from transparent_dp.errors import InfeasibleABCError
from transparent_dp.mechanisms import (
    Family,
    MechanismSpec,
    PrivacyBudget,
    double_geometric_log_pmf,
)
from transparent_dp.normal import std_normal_cdf
from transparent_dp.rng import stream
from transparent_dp.simulate import PrivatizedDataset


def dg_spec(eps):
    return MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(eps))


def small_toy(eps=0.5, prior_weights=None):
    return DiscreteToy(
        beta_grid=np.round(np.linspace(-1.0, 2.0, 7), 3),
        x_support=np.arange(0, 4),
        y_support=np.arange(-4, 9),
        n=2,
        mechanism=dg_spec(eps),
        beta0=0.5,
        sigma=1.2,
        lam=1.5,
        prior_weights=prior_weights,
    )


def test_prior_spec_uniform_box():
    prior = PriorSpec("uniform_box", bounds=((-1.0, 1.0), (2.0, 5.0)))
    draws = prior.sample(stream(80, "prior"), 500)
    assert draws.shape == (500, 2)
    assert draws[:, 0].min() >= -1.0 and draws[:, 0].max() <= 1.0
    assert draws[:, 1].min() >= 2.0 and draws[:, 1].max() <= 5.0


def test_prior_spec_point_mass_coordinate():
    prior = PriorSpec("uniform_box", bounds=((3.0, 3.0), (0.0, 1.0)))
    draws = prior.sample(stream(81, "prior-pm"), 100)
    assert np.all(draws[:, 0] == 3.0)


def test_prior_spec_independent_normal():
    prior = PriorSpec("independent_normal", means=(1.0, -2.0), sds=(0.5, 2.0))
    draws = prior.sample(stream(82, "prior-n"), 20000)
    assert abs(draws[:, 0].mean() - 1.0) < 0.02
    assert abs(draws[:, 1].std() - 2.0) < 0.05


def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec("uniform_box")
    with pytest.raises(ValueError):
        PriorSpec("uniform_box", bounds=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        PriorSpec("uniform_box", bounds=((math.inf, math.inf), (0.0, 1.0)))
    with pytest.raises(ValueError):
        PriorSpec("independent_normal", means=(0.0, 0.0))
    with pytest.raises(ValueError):
        PriorSpec("independent_normal", means=(0.0, 0.0), sds=(1.0, 0.0))
    with pytest.raises(ValueError):
        PriorSpec("jeffreys")


@pytest.mark.parametrize("means, sds, match", [
    ((math.nan, 0.0), (1.0, 1.0), "means must be finite"),
    ((0.0, -math.inf), (1.0, 1.0), "means must be finite"),
    ((0.0, 0.0, 0.0), (1.0, 1.0), "means must be a"),
    ((0.0,), (1.0, 1.0), "means must be a"),
    ((0.0, 0.0), (1.0, 1.0, 1.0), "sds must be a"),
    ((0.0, 0.0), (math.nan, 1.0), "sds must be positive"),
])
def test_prior_spec_rejects_bad_normal_parameters(means, sds, match):
    with pytest.raises(ValueError, match=match):
        PriorSpec("independent_normal", means=means, sds=sds)


def test_discrete_toy_validation():
    with pytest.raises(ValueError):
        small_toy().__class__(
            beta_grid=np.array([1.0]),
            x_support=np.arange(3),
            y_support=np.arange(3),
            n=5,
            mechanism=dg_spec(0.5),
            beta0=0.0,
            sigma=1.0,
            lam=1.0,
        )
    with pytest.raises(ValueError):
        DiscreteToy(
            beta_grid=np.array([1.0]),
            x_support=np.arange(3),
            y_support=np.arange(3),
            n=2,
            mechanism=MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5)),
            beta0=0.0,
            sigma=1.0,
            lam=1.0,
        )
    with pytest.raises(ValueError):
        small_toy(prior_weights=np.array([1.0, 2.0]))


@pytest.mark.parametrize("name", ["sigma", "lam"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_discrete_toy_rejects_nonfinite_sigma_and_lam(name, value):
    toy = small_toy()
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        DiscreteToy(
            beta_grid=toy.beta_grid, x_support=toy.x_support, y_support=toy.y_support,
            n=toy.n, mechanism=toy.mechanism, beta0=toy.beta0,
            **{"sigma": toy.sigma, "lam": toy.lam, name: value},
        )


def test_toy_x_pmf_matches_truncated_poisson():
    toy = small_toy()
    p = np.exp(toy.x_log_pmf())
    ref = stats.poisson.pmf(toy.x_support, toy.lam)
    ref = ref / ref.sum()
    np.testing.assert_allclose(p, ref, rtol=1e-10)
    assert abs(p.sum() - 1.0) < 1e-12


def test_toy_y_pmf_rows_normalized_and_gaussian_shaped():
    toy = small_toy()
    p = np.exp(toy.y_log_pmf())
    np.testing.assert_allclose(p.sum(axis=2), 1.0, atol=1e-12)
    # peak at a support value closest to the conditional mean (ties allowed)
    g, xi = 5, 2  # beta = 1.5, x = 2 -> mean 3.5
    mean = toy.beta0 + toy.beta_grid[g] * toy.x_support[xi]
    assert abs(toy.y_support[p[g, xi].argmax()] - mean) <= 0.5


def test_toy_mech_pmf_matches_mechanism_module():
    toy = small_toy(eps=0.5)
    deltas = np.arange(-6, 7)
    expected = [double_geometric_log_pmf(int(d), PrivacyBudget(0.5)) for d in deltas]
    np.testing.assert_allclose(toy.mechanism.log_density(deltas), expected, rtol=1e-12)


def test_grid_posterior_normalizes_and_single_point_case():
    toy = small_toy()
    obs, _ = toy_privatized_observation(toy, 0.5, stream(83, "obs"))
    masses = grid_posterior_oracle(toy, obs)
    assert masses.shape == toy.beta_grid.shape
    assert abs(masses.sum() - 1.0) < 1e-12

    single = DiscreteToy(
        beta_grid=np.array([0.7]),
        x_support=toy.x_support,
        y_support=toy.y_support,
        n=2,
        mechanism=dg_spec(0.5),
        beta0=0.5,
        sigma=1.2,
        lam=1.5,
    )
    np.testing.assert_array_equal(grid_posterior_oracle(single, obs), [1.0])


def test_grid_posterior_noise_free_limit_is_confidential_posterior():
    # at eps=40 the mechanism is numerically the identity, so the
    # posterior must match the direct prior-times-likelihood table
    toy = small_toy(eps=40.0)
    x_t = np.array([1, 3])
    y_t = np.array([2, 5])
    masses = grid_posterior_oracle(toy, (x_t, y_t))

    lpx = toy.x_log_pmf()
    lpy = toy.y_log_pmf()
    ix = np.searchsorted(toy.x_support, x_t)
    iy = np.searchsorted(toy.y_support, y_t)
    log_direct = toy.log_prior() + (lpx[ix][None, :] + lpy[:, ix, iy]).sum(axis=1)
    direct = np.exp(log_direct - log_direct.max())
    direct /= direct.sum()
    np.testing.assert_allclose(masses, direct, atol=1e-10)


def test_grid_and_mixture_oracles_agree():
    for sd in (84, 85, 86):
        toy, obs = random_toy(stream(sd, "pair"))
        a = grid_posterior_oracle(toy, obs)
        b = mixture_posterior_oracle(toy, obs)
        assert abs(b.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_oracles_reject_bad_observation_shape():
    toy = small_toy()
    with pytest.raises(ValueError):
        grid_posterior_oracle(toy, (np.array([1]), np.array([2, 3])))


def test_misreport_zero_discrepancy_when_budget_correct():
    for sd in (87, 88):
        toy, obs = random_toy(stream(sd, "mis0"))
        eps = toy.mechanism.budget.epsilon
        rep = misreported_mechanism_bias(toy, obs, eps, eps)
        assert abs(rep.discrepancy) < 1e-10
        assert rep.mean_true == rep.mean_assumed


def attenuation_toy():
    return DiscreteToy(
        beta_grid=np.linspace(0.0, 4.0, 9),
        x_support=np.arange(0, 15),
        y_support=np.arange(-12, 62),
        n=3,
        mechanism=dg_spec(0.7),
        beta0=0.0,
        sigma=1.0,
        lam=3.0,
    )


def test_misreport_face_value_attenuates_on_average():
    # prior grid centered at the generating slope 2, so prior shrinkage
    # cancels and the remaining face-value bias is pure attenuation;
    # measured over these seeds: avg true 2.083, avg face-value 1.718
    toy = attenuation_toy()
    t_means, a_means = [], []
    for r in range(60):
        (xt, yt), _ = toy_privatized_observation(toy, 2.0, stream(172, "dir", r))
        if not (np.isin(xt, toy.x_support).all() and np.isin(yt, toy.y_support).all()):
            continue
        rep = misreported_mechanism_bias(toy, (xt, yt), 0.7, math.inf)
        t_means.append(rep.mean_true)
        a_means.append(rep.mean_assumed)
    assert len(t_means) > 30
    assert np.mean(a_means) < np.mean(t_means) - 0.2
    assert np.mean(a_means) < 1.9


def test_misreport_prior_dominated_discrepancy_vanishes():
    weights = np.full(7, 1e-9)
    weights[3] = 1.0
    toy = small_toy(prior_weights=weights)
    obs, _ = toy_privatized_observation(toy, 0.5, stream(89, "mis-pm"))
    rep = misreported_mechanism_bias(toy, obs, 0.5, 2.0)
    assert abs(rep.discrepancy) < 1e-6


def test_misreport_argument_validation():
    toy = small_toy()
    obs = (np.array([1, 2]), np.array([0, 3]))
    with pytest.raises(ValueError):
        misreported_mechanism_bias(toy, obs, math.inf, 1.0)
    with pytest.raises(ValueError):
        misreported_mechanism_bias(toy, obs, 0.5, 0.0)


def test_misreport_face_value_needs_in_support_release():
    toy = small_toy()
    out = (np.array([-7, 1]), np.array([0, 3]))  # x outside the support
    with pytest.raises(ValueError):
        misreported_mechanism_bias(toy, out, 0.5, math.inf)


def test_abc_exact_point_mass_prior_accepts_at_mode():
    # prior concentrated on the generating point and a release equal to
    # the noise-free data makes the acceptance probability 1 whenever the
    # proposal reproduces the confidential draw
    prior = PriorSpec("uniform_box", bounds=((2.0, 2.0), (0.5, 0.5)))
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(
        x_tilde=np.zeros(3), y_tilde=np.full(3, 2.0), spec_x=spec, spec_y=spec,
        parent_seed=0,
    )
    res = abc_exact_posterior(
        priv, prior, 200, stream(90, "abc-pm"), lam=0.01, sigma=1e-9,
        batch_size=2000,
    )
    assert res.samples.shape == (200, 2)
    assert np.all(res.samples == [2.0, 0.5])
    assert res.acceptance_rate > 0.9


def point_mass_acceptance(x_tilde, y_tilde, b, beta0, beta1, sigma, lam):
    """Exact acceptance probability of a proposal at (beta0, beta1).

    Per record: sum over x of Pois(x; lam) e^(-|x - x~|/b) times
    E[e^(-|m + e|/b)] with m = beta0 + beta1 x - y~ and e ~ N(0, sigma^2),
    which is e^(s^2/2b^2) [e^(-m/b) Phi(m/s - s/b) + e^(m/b) Phi(-m/s - s/b)].
    """
    p = 1.0
    for x_obs, y_obs in zip(x_tilde, y_tilde):
        total = 0.0
        for x in range(80):
            pois = math.exp(x * math.log(lam) - lam - math.lgamma(x + 1.0))
            m = beta0 + beta1 * x - y_obs
            e_y = math.exp(sigma**2 / (2.0 * b**2)) * (
                math.exp(-m / b) * std_normal_cdf(m / sigma - sigma / b)
                + math.exp(m / b) * std_normal_cdf(-m / sigma - sigma / b)
            )
            total += pois * math.exp(-abs(x - x_obs) / b) * e_y
        p *= total
    return p


@pytest.mark.parametrize("spec_x, x_tilde", [
    (MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5)), (4.2, 6.9, 3.1)),
    # The double geometric's ratio to its mode, exp(-eps |dx| / sensitivity),
    # is the closed form's x factor at b = sensitivity / eps = 2.  Sensitivity
    # 2 also catches a rate that ignores it.
    (MechanismSpec(Family.DOUBLE_GEOMETRIC, 2.0, PrivacyBudget(1.0)), (4, 7, 3)),
], ids=["laplace", "double_geometric_x"])
def test_abc_exact_acceptance_count_matches_closed_form(spec_x, x_tilde):
    # One batch of N proposals at a point-mass prior: the accepted count is
    # Binomial(N, p) with p in closed form.  A sampler whose Laplace scale
    # is 10% off accepts about 1.37 N p, some 25 standard deviations away.
    y_tilde = (9.4, 13.8, 7.2)
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5))
    priv = PrivatizedDataset(
        x_tilde=np.array(x_tilde), y_tilde=np.array(y_tilde), spec_x=spec_x,
        spec_y=spec, parent_seed=0,
    )
    prior = PriorSpec("uniform_box", bounds=((3.0, 3.0), (1.5, 1.5)))
    n_prop = 1_000_000
    res = abc_exact_posterior(
        priv, prior, 1, stream(96, "abc-rate"), lam=5.0, sigma=2.0,
        batch_size=n_prop,
    )
    assert res.proposals == n_prop
    accepted = round(res.acceptance_rate * res.proposals)
    assert res.samples.shape == (1, 2)
    expected = n_prop * point_mass_acceptance(x_tilde, y_tilde, spec.scale, 3.0, 1.5, 2.0, 5.0)
    assert abs(accepted - expected) <= 4.0 * math.sqrt(expected)


def test_abc_exact_truncated_support_far_above_lam():
    # x~ = 34 lies about 3.1 Poisson SDs above lam = 20, and y~ puts the
    # slope line at x = 36, so most of the accepted mass has x above x~.  A
    # support cut at max(lam, x~) keeps about a third of it: some 370 of
    # the 547 expected acceptances go missing, about 16 SDs.
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.25))
    x_tilde, y_tilde = (34.0,), (183.0,)
    priv = PrivatizedDataset(
        x_tilde=np.array(x_tilde), y_tilde=np.array(y_tilde), spec_x=spec,
        spec_y=spec, parent_seed=0,
    )
    prior = PriorSpec("uniform_box", bounds=((3.0, 3.0), (5.0, 5.0)))
    n_prop = 1_000_000
    res = abc_exact_posterior(
        priv, prior, 1, stream(98, "abc-far"), lam=20.0, sigma=2.0,
        batch_size=n_prop,
    )
    assert res.proposals == n_prop
    accepted = round(res.acceptance_rate * res.proposals)
    expected = n_prop * point_mass_acceptance(x_tilde, y_tilde, spec.scale, 3.0, 5.0, 2.0, 20.0)
    assert expected >= 100
    assert abs(accepted - expected) <= 4.0 * math.sqrt(expected)


@pytest.mark.parametrize("name, lam, sigma", [
    ("lam", 0.0, 1.0), ("lam", -1.0, 1.0), ("lam", math.nan, 1.0),
    ("lam", math.inf, 1.0), ("sigma", 1.0, 0.0), ("sigma", 1.0, -2.0),
    ("sigma", 1.0, math.inf),
])
def test_abc_exact_rejects_bad_lam_and_sigma_before_drawing(name, lam, sigma):
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(
        x_tilde=np.array([1.0]), y_tilde=np.array([0.0]), spec_x=spec, spec_y=spec,
        parent_seed=0,
    )
    prior = PriorSpec("uniform_box", bounds=((0.0, 1.0), (0.0, 1.0)))
    rng = stream(99, "abc-bad")
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        abc_exact_posterior(priv, prior, 5, rng, lam=lam, sigma=sigma)
    assert rng.random() == stream(99, "abc-bad").random()  # nothing was drawn


def test_abc_exact_rejects_an_empty_release():
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(
        x_tilde=np.array([]), y_tilde=np.array([]), spec_x=spec, spec_y=spec,
        parent_seed=0,
    )
    prior = PriorSpec("uniform_box", bounds=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="at least one record"):
        abc_exact_posterior(priv, prior, 5, stream(99, "abc-empty"), lam=1.0, sigma=1.0)


def test_abc_exact_deterministic_per_stream():
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5))
    priv = PrivatizedDataset(
        x_tilde=np.array([4.2, 6.9]), y_tilde=np.array([9.4, 13.8]), spec_x=spec,
        spec_y=spec, parent_seed=0,
    )
    prior = PriorSpec("uniform_box", bounds=((0.0, 6.0), (0.5, 2.5)))
    a, b = (
        abc_exact_posterior(priv, prior, 300, stream(97, "abc-det"), lam=5.0, sigma=2.0)
        for _ in range(2)
    )
    np.testing.assert_array_equal(a.samples, b.samples)
    assert (a.proposals, a.acceptance_rate) == (b.proposals, b.acceptance_rate)


def test_abc_toy_posterior_matches_oracle():
    toy = small_toy()
    obs, _ = toy_privatized_observation(toy, 0.5, stream(160, "tv"))
    oracle = grid_posterior_oracle(toy, obs)
    res = abc_toy_posterior(toy, obs, 20000, stream(160, "tv-abc"))
    hist = np.array([(res.samples == b).mean() for b in toy.beta_grid])
    tv = 0.5 * np.abs(hist - oracle).sum()
    assert tv < 0.02
    assert res.samples.shape == (20000,)
    assert np.isin(res.samples, toy.beta_grid).all()
    assert res.proposals >= 20000
    assert 0.0 < res.acceptance_rate <= 1.0


def test_abc_toy_acceptance_count_matches_closed_form():
    # One batch of N proposals on a one-point slope grid: the accepted count
    # is Binomial(N, p), with p the product over records of
    # sum_x P(x) a(x~ - x) sum_y P(y | x) a(y~ - y) summed over the finite
    # supports, where a(d) = exp(-eps |d|) is the double geometric's ratio
    # to its mode.
    eps, beta, beta0, sigma, lam = 0.5, 1.0, 0.5, 1.2, 1.5
    toy = DiscreteToy(
        beta_grid=np.array([beta]),
        x_support=np.arange(0, 4),
        y_support=np.arange(-4, 9),
        n=2,
        mechanism=dg_spec(eps),
        beta0=beta0,
        sigma=sigma,
        lam=lam,
    )
    x_tilde, y_tilde = (1, 5), (2, 7)
    px = stats.poisson.pmf(toy.x_support, lam)
    px = px / px.sum()
    p = 1.0
    for x_obs, y_obs in zip(x_tilde, y_tilde):
        total = 0.0
        for x, p_x in zip(toy.x_support, px):
            py = np.exp(-((toy.y_support - beta0 - beta * x) ** 2) / (2.0 * sigma**2))
            py = py / py.sum()
            a_y = float(py @ np.exp(-eps * np.abs(y_obs - toy.y_support)))
            total += p_x * math.exp(-eps * abs(x_obs - x)) * a_y
        p *= total
    n_prop = 1_000_000
    res = abc_toy_posterior(
        toy, (np.array(x_tilde), np.array(y_tilde)), 1, stream(161, "toy-rate"),
        batch_size=n_prop,
    )
    assert res.proposals == n_prop
    assert np.all(res.samples == beta)
    accepted = round(res.acceptance_rate * res.proposals)
    assert abs(accepted - n_prop * p) <= 4.0 * math.sqrt(n_prop * p * (1.0 - p))


def test_abc_se_halves_when_draws_double():
    toy = small_toy()
    obs, _ = toy_privatized_observation(toy, 0.5, stream(91, "se"))
    r1 = abc_toy_posterior(toy, obs, 5000, stream(91, "se-a"))
    r2 = abc_toy_posterior(toy, obs, 10000, stream(91, "se-b"))
    se1 = r1.samples.std(ddof=1) / math.sqrt(r1.samples.size)
    se2 = r2.samples.std(ddof=1) / math.sqrt(r2.samples.size)
    assert math.sqrt(2.0) / 1.5 < se1 / se2 < math.sqrt(2.0) * 1.5


def test_abc_infeasible_prior_raises():
    prior = PriorSpec("uniform_box", bounds=((1000.0, 1001.0), (0.0, 0.0)))
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(50.0))
    priv = PrivatizedDataset(
        x_tilde=np.array([1.0]), y_tilde=np.array([0.0]), spec_x=spec, spec_y=spec,
        parent_seed=0,
    )
    with pytest.raises(InfeasibleABCError):
        abc_exact_posterior(
            priv, prior, 5, stream(7, "inf"), lam=1.0, sigma=0.5,
            batch_size=1_000_000,
        )


def test_abc_probe_fires_at_the_batch_that_reaches_it():
    # Batches of 3e6 proposals reach the 1e7 probe at the fourth batch,
    # whatever the number of batches a pass holds.
    prior = PriorSpec("uniform_box", bounds=((1000.0, 1001.0), (0.0, 0.0)))
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(50.0))
    priv = PrivatizedDataset(
        x_tilde=np.array([1.0]), y_tilde=np.array([0.0]), spec_x=spec, spec_y=spec,
        parent_seed=0,
    )
    with pytest.raises(InfeasibleABCError, match="after 12000000 proposals"):
        abc_exact_posterior(
            priv, prior, 5, stream(7, "inf"), lam=1.0, sigma=0.5,
            batch_size=3_000_000,
        )


def test_abc_tiny_x_pass_rate_raises_with_bounded_passes():
    # x~ = 60 at lam = 1 and b = 1 puts P_x near 1e-26, so no proposal
    # survives the x stages.  At batch_size=1 the probe needs 1e7 batches;
    # the pass cap keeps each pass small instead of doubling it to millions
    # of batches.
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(
        x_tilde=np.array([60.0]), y_tilde=np.array([0.0]), spec_x=spec, spec_y=spec,
        parent_seed=0,
    )
    prior = PriorSpec("uniform_box", bounds=((0.0, 1.0), (0.0, 1.0)))
    tracemalloc.start()
    try:
        with pytest.raises(InfeasibleABCError, match="after 10000000 proposals"):
            abc_exact_posterior(
                priv, prior, 5, stream(8, "tiny"), lam=1.0, sigma=1.0, batch_size=1
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def exact_case():
    # The laplace release of test_abc_exact_acceptance_count_matches_closed_form
    # and its acceptance probability p.
    x_tilde, y_tilde = (4.2, 6.9, 3.1), (9.4, 13.8, 7.2)
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5))
    priv = PrivatizedDataset(
        x_tilde=np.array(x_tilde), y_tilde=np.array(y_tilde), spec_x=spec,
        spec_y=spec, parent_seed=0,
    )
    prior = PriorSpec("uniform_box", bounds=((3.0, 3.0), (1.5, 1.5)))

    def run(batch_size, draws, seed):
        return abc_exact_posterior(
            priv, prior, draws, stream(seed, "abc-acct"), lam=5.0, sigma=2.0,
            batch_size=batch_size,
        )

    return run, point_mass_acceptance(x_tilde, y_tilde, spec.scale, 3.0, 1.5, 2.0, 5.0)


def toy_case():
    # A one-point slope grid, whose acceptance probability p is a finite sum
    # over the supports of P(x) a(x~ - x) P(y | x) a(y~ - y) per record, with
    # a(d) = exp(-eps |d|) the double geometric's ratio to its mode.
    eps, beta, beta0, sigma, lam = 0.5, 1.0, 0.5, 1.2, 1.5
    toy = DiscreteToy(
        beta_grid=np.array([beta]), x_support=np.arange(0, 4),
        y_support=np.arange(-4, 9), n=2, mechanism=dg_spec(eps), beta0=beta0,
        sigma=sigma, lam=lam,
    )
    x_tilde, y_tilde = np.array([1, 3]), np.array([2, 4])
    px = stats.poisson.pmf(toy.x_support, lam)
    py = np.exp(-((toy.y_support - beta0 - beta * toy.x_support[:, None]) ** 2)
                / (2.0 * sigma**2))
    px, py = px / px.sum(), py / py.sum(axis=1, keepdims=True)
    p = 1.0
    for x_obs, y_obs in zip(x_tilde, y_tilde):
        a_y = py @ np.exp(-eps * np.abs(y_obs - toy.y_support))
        p *= float(np.sum(px * np.exp(-eps * np.abs(x_obs - toy.x_support)) * a_y))

    def run(batch_size, draws, seed):
        return abc_toy_posterior(
            toy, (x_tilde, y_tilde), draws, stream(seed, "toy-acct"), batch_size=batch_size
        )

    return run, p


@pytest.mark.parametrize("case", [exact_case, toy_case], ids=["exact", "toy"])
def test_abc_batch_size_one_stops_at_the_last_acceptance(case):
    # A batch of one proposal accepts at most one, so the sampler stops at
    # the draws-th acceptance: it accepted exactly `draws`, and the number of
    # proposals, draws plus the rejections before the last acceptance, is
    # negative binomial with mean draws / p.  Passes run up to thousands of
    # batches here, so most end past the last acceptance.
    run, p = case()
    draws = 400
    res = run(1, draws, 11)
    assert round(res.acceptance_rate * res.proposals) == draws
    assert res.acceptance_rate == draws / res.proposals
    assert len(res.samples) == draws
    sd = math.sqrt(draws * (1.0 - p)) / p
    assert abs(res.proposals - draws / p) <= 4.0 * sd


@pytest.mark.parametrize("case", [exact_case, toy_case], ids=["exact", "toy"])
def test_abc_proposals_are_whole_batches(case):
    # About 40 batches of 1000 proposals, which take several passes.
    run, p = case()
    draws = round(40 * 1000 * p)
    res = run(1000, draws, 12)
    assert res.proposals % 1000 == 0
    assert res.proposals >= 10_000
    assert len(res.samples) == draws
    assert round(res.acceptance_rate * res.proposals) >= draws


def test_abc_toy_certain_acceptance_counts_whole_batches():
    # One-point supports equal to the release accept every proposal, so the
    # sampler must stop after ceil(draws / batch_size) batches.
    toy = DiscreteToy(
        beta_grid=np.array([1.0]), x_support=np.array([2]), y_support=np.array([3]),
        n=2, mechanism=dg_spec(0.5), beta0=1.0, sigma=1.0, lam=2.0,
    )
    obs = (np.array([2, 2]), np.array([3, 3]))
    for draws, batch_size, proposals in ((100, 7, 105), (10, 1, 10), (3, 1000, 1000)):
        res = abc_toy_posterior(toy, obs, draws, stream(13, "sure"), batch_size=batch_size)
        assert (res.proposals, res.acceptance_rate) == (proposals, 1.0)
        assert res.samples.shape == (draws,)


@pytest.mark.parametrize("batch_size", [0, -1])
@pytest.mark.parametrize("case", [exact_case, toy_case], ids=["exact", "toy"])
def test_abc_rejects_batch_size_below_one(case, batch_size):
    run, _ = case()
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        run(batch_size, 5, 14)


def test_abc_argument_validation():
    toy = small_toy()
    obs, _ = toy_privatized_observation(toy, 0.5, stream(92, "val"))
    with pytest.raises(ValueError):
        abc_toy_posterior(toy, obs, 0, stream(92, "val-a"))
    prior = PriorSpec("uniform_box", bounds=((0.0, 1.0), (0.0, 1.0)))
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    priv = PrivatizedDataset(
        x_tilde=np.array([1.0]), y_tilde=np.array([0.0]), spec_x=spec, spec_y=spec,
        parent_seed=0,
    )
    with pytest.raises(ValueError):
        abc_exact_posterior(priv, prior, 0, stream(92, "val-b"), lam=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        abc_exact_posterior(
            priv, prior, 5, stream(92, "val-c"), lam=1.0, sigma=1.0, batch_size=0
        )


def test_abc_deterministic_per_stream():
    toy = small_toy()
    obs, _ = toy_privatized_observation(toy, 0.5, stream(93, "det"))
    a = abc_toy_posterior(toy, obs, 2000, stream(93, "det-a"))
    b = abc_toy_posterior(toy, obs, 2000, stream(93, "det-a"))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.proposals == b.proposals


def test_toy_privatized_observation_requires_grid_beta():
    toy = small_toy()
    with pytest.raises(ValueError):
        toy_privatized_observation(toy, 0.123, stream(94, "grid"))


def test_posterior_fit_summary():
    rng = stream(95, "fit")
    samples = rng.normal([1.0, 2.0], [0.1, 0.2], (5000, 2))
    fit = posterior_fit(samples, n=7, sigma_sq=4.0)
    assert fit.method == "abc"
    assert fit.n == 7
    assert fit.residual_variance == 4.0
    assert fit.beta0_hat == pytest.approx(samples[:, 0].mean())
    assert fit.beta1_hat == pytest.approx(samples[:, 1].mean())
    np.testing.assert_allclose(fit.covariance, np.cov(samples.T), rtol=1e-10)
    with pytest.raises(ValueError):
        posterior_fit(samples[:1], n=7, sigma_sq=4.0)
    with pytest.raises(ValueError):
        posterior_fit(samples[:, :1], n=7, sigma_sq=4.0)


def test_samples_csv_round_trip():
    samples = np.array([[0.5, -1.25], [2.0, 3.5]])
    lines = samples_to_csv(samples).splitlines()
    assert lines[0] == "draw,beta0,beta1"
    assert lines[1].split(",") == ["0", "0.5", "-1.25"]
    assert float(lines[2].split(",")[2]) == 3.5


def test_table_csv_round_trip():
    lines = table_to_csv(np.array([0.1, 0.2]), np.array([0.25, 0.75])).splitlines()
    assert lines[0] == "beta,mass"
    assert [float(v) for v in lines[1].split(",")] == [0.1, 0.25]
    assert [float(v) for v in lines[2].split(",")] == [0.2, 0.75]
