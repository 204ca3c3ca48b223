"""End-to-end acceptance gate for the headline numerical claims.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and covers one claim: attenuation and bias limits of the naive fit, the
noisy-slope CLT and its coverage collapse, MCEM against a brute-force
quadrature oracle, confidence-ellipse coverage gains, posterior identities
on the discrete toy, exact-ABC agreement, mechanism verification, and CLI
determinism. Seeds are fixed throughout, so every number here is exactly
reproducible.
"""

import math

import numpy as np
import pytest
from scipy import stats

from transparent_dp.asymptotics import (
    biasing_coefficient,
    clt_variance,
    coverage_grid,
    limit_coverage,
    reference_design,
    sample_moments,
)
from transparent_dp.bayes_abc import (
    PriorSpec,
    abc_exact_posterior,
    abc_toy_posterior,
    grid_posterior_oracle,
    misreported_mechanism_bias,
    mixture_posterior_oracle,
    random_toy,
)
from transparent_dp.cli import main
from transparent_dp.mcem import MCEMConfig, ellipse_study, run_mcem
from transparent_dp.mechanisms import (
    Family,
    MechanismSpec,
    PrivacyBudget,
    verify_dp_discrete,
)
from transparent_dp.naive_fit import ols
from transparent_dp.rng import stream
from transparent_dp.simulate import (
    PrivatizedDataset,
    RegressionParams,
    gen_confidential,
    privatize_dataset,
)

PARAMS = RegressionParams(beta0=-5.0, beta1=4.0, sigma=5.0, lam=10.0)

# eps = 0.25 per coordinate at sensitivity 1: Laplace scale 4, variance 32
SIGMA_U_SQ = 32.0
SLOPE_LIMIT = PARAMS.beta1 * PARAMS.lam / (PARAMS.lam + SIGMA_U_SQ)
INTERCEPT_LIMIT = PARAMS.beta0 + PARAMS.beta1 * PARAMS.lam * (
    SIGMA_U_SQ / (PARAMS.lam + SIGMA_U_SQ)
)
RESID_VAR_AT_TRUTH = PARAMS.sigma**2 + SIGMA_U_SQ + PARAMS.beta1**2 * SIGMA_U_SQ

# n=4 release used by the quadrature, MCEM, and ABC cross-checks
TOY_SPEC = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5))
TOY_RELEASE = PrivatizedDataset(
    x_tilde=np.array([8.747, 7.655, 3.661, 4.664]),
    y_tilde=np.array([12.485, 19.217, 7.683, 11.223]),
    spec_x=TOY_SPEC,
    spec_y=TOY_SPEC,
    parent_seed=0,
)
TOY_SIGMA, TOY_LAM = 2.0, 5.0

# Argmax of the exact integrated likelihood of TOY_RELEASE on a fine grid
# (y integrated by trapezoid at step 0.005, x summed over 0..60, then
# Nelder-Mead polish; stable to 1e-5 under halving the step).
QUAD_ARGMAX = (3.51345, 1.64524)


def report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {num:02d} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def naive_replicates():
    """200 naive fits on independent n=10^4 releases at eps 0.25 + 0.25."""
    slopes, intercepts, resid = [], [], []
    for r in range(200):
        conf = gen_confidential(10_000, PARAMS, stream(21, "atten", r), seed=21)
        priv = privatize_dataset(
            conf, PrivacyBudget(0.25), PrivacyBudget(0.25), stream(21, "atten", "p", r)
        )
        fit = ols(priv.x_tilde, priv.y_tilde)
        slopes.append(fit.beta1_hat)
        intercepts.append(fit.beta0_hat)
        resid.append(
            float(np.mean((priv.y_tilde - (PARAMS.beta0 + PARAMS.beta1 * priv.x_tilde)) ** 2))
        )
    return np.asarray(slopes), np.asarray(intercepts), np.asarray(resid)


@pytest.fixture(scope="module")
def toy_mcem():
    config = MCEMConfig(
        k_samples=1_000_000, max_iter=25, sigma=TOY_SIGMA, lam=TOY_LAM
    )
    return run_mcem(TOY_RELEASE, config, 1001)


def test_01_attenuation_limit(naive_replicates):
    slopes, _, _ = naive_replicates
    se = slopes.std(ddof=1) / math.sqrt(slopes.size)
    diff = abs(slopes.mean() - SLOPE_LIMIT)
    report(
        1, "attenuation limit", diff <= 3 * se,
        f"mean naive slope {slopes.mean():.5f} vs limit {SLOPE_LIMIT:.5f} "
        f"(|diff| {diff:.5f} <= 3 MC SE {3 * se:.5f})",
    )


def test_02_intercept_bias(naive_replicates):
    _, intercepts, _ = naive_replicates
    se = intercepts.std(ddof=1) / math.sqrt(intercepts.size)
    diff = abs(intercepts.mean() - INTERCEPT_LIMIT)
    report(
        2, "intercept bias", diff <= 3 * se,
        f"mean naive intercept {intercepts.mean():.4f} vs limit "
        f"{INTERCEPT_LIMIT:.4f} (|diff| {diff:.4f} <= 3 MC SE {3 * se:.4f})",
    )


def test_03_variance_inflation(naive_replicates):
    _, _, resid = naive_replicates
    rel = abs(resid.mean() / RESID_VAR_AT_TRUTH - 1.0)
    report(
        3, "variance inflation", rel < 0.05,
        f"residual variance at the true line {resid.mean():.2f} vs "
        f"{RESID_VAR_AT_TRUTH:.0f} (rel err {rel:.4f} < 0.05)",
    )


def test_04_clt_normality_and_coverage():
    x = reference_design(500)
    mom = sample_moments(x)
    rng = stream(31, "clt-sim")
    R = 2000
    z975 = 1.959963984540054
    all_within = True
    ks_p = None
    worst = ""
    for su in (0.0, 1.0, 2.0):
        for sv in (0.0, 1.0, 2.0):
            eps = rng.normal(0.0, 1.0, (R, 500))
            u = rng.laplace(0.0, su / math.sqrt(2.0), (R, 500))
            v = rng.laplace(0.0, sv / math.sqrt(2.0), (R, 500))
            xt = x + u
            yt = 0.5 * x + eps + v
            xc = xt - xt.mean(axis=1, keepdims=True)
            yc = yt - yt.mean(axis=1, keepdims=True)
            b = (xc * yc).sum(axis=1) / (xc * xc).sum(axis=1)
            gamma = biasing_coefficient(mom, su**2)
            st = clt_variance(mom, 0.5, 1.0, su**2, sv**2)
            half = z975 * math.sqrt(st / 500.0)
            mc = float(np.mean(np.abs(b - 0.5) <= half))
            analytic = limit_coverage(gamma, 0.5, st, 500, 0.05)
            if su == 0.0 and sv == 0.0:
                assert abs(analytic - 0.95) < 1e-9
            se = math.sqrt(max(mc * (1 - mc), 1e-6) / R)
            if abs(mc - analytic) > 2 * se:
                all_within = False
                worst = f" (off at su={su} sv={sv}: {mc:.4f} vs {analytic:.4f})"
            if su == 2.0 and sv == 2.0:
                zstat = math.sqrt(500.0) * (b - gamma * 0.5) / math.sqrt(st)
                ks_p = float(stats.kstest(zstat, "norm").pvalue)
    ok = all_within and ks_p > 0.001
    report(
        4, "noisy-slope CLT", ok,
        f"KS p = {ks_p:.4f} > 0.001; MC coverage within 2 MC SE of the "
        f"analytic value at 9/9 noise levels, exactly 0.95 at zero noise" + worst,
    )


def test_05_coverage_collapse():
    x = reference_design(500)
    details = []
    ok = True
    for conv in ("classical_se", "privacy_aware_se"):
        rows = coverage_grid(
            x, 0.5, 1.0, np.linspace(0.0, 2.0, 5), [0.0], convention=conv
        )
        covs = [row[3] for row in rows]
        mono = all(a >= b for a, b in zip(covs, covs[1:]))
        ok = ok and mono and covs[0] == pytest.approx(0.95, abs=1e-9) and covs[-1] < 0.05
        details.append(f"{conv}: 0.95 -> {covs[-1]:.2e}, monotone={mono}")
    report(5, "coverage collapse", ok, "; ".join(details))


def test_06_mcem_matches_quadrature(toy_mcem):
    d0 = abs(toy_mcem.fit.beta0_hat - QUAD_ARGMAX[0])
    d1 = abs(toy_mcem.fit.beta1_hat - QUAD_ARGMAX[1])
    score_ok = (np.abs(toy_mcem.mean_score) <= 3 * toy_mcem.mean_score_se).all()
    ok = d0 < 0.05 and d1 < 0.05 and bool(score_ok)
    report(
        6, "MCEM vs quadrature", ok,
        f"argmax ({toy_mcem.fit.beta0_hat:.4f}, {toy_mcem.fit.beta1_hat:.4f}) vs "
        f"({QUAD_ARGMAX[0]}, {QUAD_ARGMAX[1]}), |diff| ({d0:.4f}, {d1:.4f}) < 0.05; "
        f"mean score within 3 MC SE of zero: {bool(score_ok)}",
    )


def test_07_ellipse_coverage_gain():
    _, tight = ellipse_study(
        PARAMS, 10, PrivacyBudget(0.25), PrivacyBudget(0.25), 100, 6,
        config=MCEMConfig(),
    )
    _, loose = ellipse_study(
        PARAMS, 10, PrivacyBudget(1.0), PrivacyBudget(1.0), 100, 6,
        config=MCEMConfig(),
    )
    margin = tight["mcem"] - tight["naive"]
    ok = margin >= 0.30 and loose["naive"] > tight["naive"]
    report(
        7, "ellipse coverage gain", ok,
        f"at eps 0.25: naive {tight['naive']:.2f}, mcem {tight['mcem']:.2f} "
        f"(margin {margin:.2f} >= 0.30); naive at eps 1: {loose['naive']:.2f} "
        f"> {tight['naive']:.2f}",
    )


def test_08_posterior_oracle_identity():
    rng = stream(101, "route-identity")
    worst = 0.0
    for _ in range(20):
        toy, s_obs = random_toy(rng)
        grid = grid_posterior_oracle(toy, s_obs)
        mixture = mixture_posterior_oracle(toy, s_obs)
        worst = max(worst, float(np.abs(grid - mixture).max()))
    report(
        8, "posterior route identity", worst < 1e-8,
        f"grid vs mixture tables agree entrywise on 20 random toys "
        f"(worst {worst:.2e} < 1e-8)",
    )


def test_09_misreported_budget_bias():
    rng = stream(102, "misreport")
    match_max = 0.0
    mismatch_min = math.inf
    for _ in range(6):
        toy, s_obs = random_toy(rng)
        eps = toy.mechanism.budget.epsilon
        match_max = max(
            match_max, abs(misreported_mechanism_bias(toy, s_obs, eps, eps).discrepancy)
        )
        for factor in (0.5, 2.0):
            rep = misreported_mechanism_bias(toy, s_obs, eps, factor * eps)
            mismatch_min = min(mismatch_min, abs(rep.discrepancy))
    ok = match_max < 1e-10 and mismatch_min > 1e-10
    report(
        9, "misreported budget bias", ok,
        f"zero at the true budget (max {match_max:.1e} < 1e-10), nonzero at "
        f"half and double budgets on all 6 toys (min {mismatch_min:.1e})",
    )


def test_10_dp_verification():
    rr = verify_dp_discrete(Family.RANDOMIZED_RESPONSE, PrivacyBudget(math.log(3.0)))
    dg = verify_dp_discrete(Family.DOUBLE_GEOMETRIC, PrivacyBudget(0.25))
    ok = (
        rr.max_log_ratio == math.log(3.0)
        and rr.satisfied
        and dg.satisfied
        and dg.max_log_ratio <= 0.25 + 1e-12
    )
    report(
        10, "mechanism verification", ok,
        f"randomized response at ln 3: max log ratio {rr.max_log_ratio!r} == "
        f"ln 3 exactly; double geometric at 0.25 bounded "
        f"(max {dg.max_log_ratio:.4f})",
    )


def test_11_abc_exactness(toy_mcem):
    toy, s_obs = random_toy(stream(105, "toy-tv"))
    res = abc_toy_posterior(toy, s_obs, 100_000, stream(105, "toy-tv", "abc"))
    oracle = grid_posterior_oracle(toy, s_obs)
    hist = np.array([(res.samples == b).mean() for b in toy.beta_grid])
    tv = 0.5 * float(np.abs(hist - oracle).sum())

    prior = PriorSpec("uniform_box", bounds=((0.5, 6.5), (1.05, 2.25)))
    abc = abc_exact_posterior(
        TOY_RELEASE, prior, 800, stream(3, "abc-run"), lam=TOY_LAM, sigma=TOY_SIGMA
    )
    mean_b1 = float(abc.samples[:, 1].mean())
    se_abc = float(abc.samples[:, 1].std(ddof=1)) / math.sqrt(800)
    # EM-side MC noise: score noise mapped through the inverse information
    finv = np.linalg.inv(toy_mcem.fisher)
    se_mcem = math.sqrt(
        (finv @ np.diag(toy_mcem.mean_score_se**2) @ finv.T)[1, 1]
    )
    combined = math.sqrt(se_abc**2 + se_mcem**2)
    diff = abs(mean_b1 - toy_mcem.fit.beta1_hat)
    ok = tv < 0.02 and diff <= 3 * combined and diff < 0.02
    report(
        11, "exact ABC agreement", ok,
        f"toy posterior TV {tv:.4f} < 0.02 at 1e5 draws; flat-prior slope mean "
        f"{mean_b1:.4f} vs MCEM {toy_mcem.fit.beta1_hat:.4f} "
        f"(|diff| {diff:.4f} <= 3 combined MC SE {3 * combined:.4f})",
    )


def test_12_cli_determinism(tmp_path, capsys):
    env = tmp_path / "env.json"
    env12 = tmp_path / "env12.json"
    tracts = tmp_path / "tracts.csv"
    tracts.write_text("tract,w,b\n0,60,20\n1,40,80\n")
    assert main(["simulate", "--n", "3", "--sigma", "2", "--lam", "5",
                 "--epsilon-x", "0.5", "--epsilon-y", "0.5", "--seed", "61",
                 "--output", str(env)]) == 0
    assert main(["simulate", "--n", "12", "--sigma", "2", "--lam", "5",
                 "--epsilon-x", "1", "--epsilon-y", "1", "--seed", "5",
                 "--output", str(env12)]) == 0
    commands = [
        ["privatize", "--values", "3,1,4,1,5", "--family", "double-geometric",
         "--epsilon", "0.5", "--seed", "3"],
        ["simulate", "--n", "3", "--sigma", "2", "--lam", "5", "--epsilon-x",
         "0.5", "--epsilon-y", "0.5", "--seed", "61"],
        ["fit-naive", "--input", str(env)],
        ["fit-mcem", "--input", str(env12), "--seed", "7", "--k-samples",
         "500", "--max-iter", "4"],
        ["abc-posterior", "--input", str(env), "--draws", "100", "--seed",
         "12", "--beta0-range=-8,0", "--beta1-range", "2,6"],
        ["clt-limits", "--steps", "5"],
        ["coverage-grid", "--steps", "3"],
        ["ellipse-study", "--epsilon-x", "0.5", "--epsilon-y", "0.5", "--n",
         "8", "--replicates", "2", "--k-samples", "300", "--max-iter", "4",
         "--seed", "5"],
        ["dissimilarity", "--input", str(tracts), "--epsilon", "0.25",
         "--replicates", "500", "--seed", "9"],
        ["verify-dp", "--family", "double-geometric", "--epsilon", "0.25"],
    ]
    stable = 0
    for i, argv in enumerate(commands):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(argv + ["--output", str(a)]) == 0, argv
        assert main(argv + ["--output", str(b)]) == 0, argv
        assert a.read_bytes() == b.read_bytes(), argv
        stable += 1
    capsys.readouterr()
    report(
        12, "CLI determinism", stable == len(commands),
        f"{stable}/{len(commands)} commands rerun byte-identical "
        f"(every subcommand covered)",
    )
