import math

import numpy as np
import pytest

from transparent_dp import mechanisms
from transparent_dp.errors import UnsupportedFamilyError
from transparent_dp.mechanisms import (
    DG_MAX_VALUE,
    DG_MIN_RATE,
    LAPLACE_MAX_SCALE,
    DpReport,
    Family,
    MechanismSpec,
    PrivacyBudget,
    double_geometric_log_pmf,
    double_geometric_noise,
    laplace_log_density,
    laplace_noise,
    privatize_vector,
    verify_dp_discrete,
)
from transparent_dp.rng import stream


def test_budget_requires_positive_finite_epsilon():
    PrivacyBudget(0.01)
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            PrivacyBudget(bad)


def test_spec_scale_is_sensitivity_over_epsilon():
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.25))
    assert spec.scale == 4.0
    with pytest.raises(ValueError):
        MechanismSpec(Family.LAPLACE, 0.0, PrivacyBudget(0.25))


@pytest.mark.parametrize("sensitivity", [0.5, 2.0, 7.0])
def test_spec_randomized_response_has_sensitivity_one(sensitivity):
    with pytest.raises(ValueError, match=f"sensitivity 1, got {sensitivity!r}"):
        MechanismSpec(Family.RANDOMIZED_RESPONSE, sensitivity, PrivacyBudget(1.0))
    with pytest.raises(ValueError, match="sensitivity 1"):
        MechanismSpec.from_dict({"family": "randomized_response",
                                 "sensitivity": sensitivity, "epsilon": 1.0})


def test_spec_truth_probability_only_for_rr():
    rr = MechanismSpec(Family.RANDOMIZED_RESPONSE, 1.0, PrivacyBudget(math.log(3)))
    assert rr.truth_probability == pytest.approx(0.75, abs=1e-15)
    lap = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    with pytest.raises(UnsupportedFamilyError):
        lap.truth_probability
    with pytest.raises(UnsupportedFamilyError):
        rr.scale


@pytest.mark.parametrize("sensitivity", [1.0, 5.0])
def test_spec_log_density_is_the_family_kernel(sensitivity):
    budget = PrivacyBudget(0.5)
    deltas = np.arange(-12, 13)
    lap = MechanismSpec(Family.LAPLACE, sensitivity, budget)
    np.testing.assert_array_equal(
        lap.log_density(deltas + 0.25), laplace_log_density(deltas + 0.25, sensitivity / 0.5)
    )
    assert lap.log_density(-1.5) == laplace_log_density(-1.5, sensitivity / 0.5)
    dg = MechanismSpec(Family.DOUBLE_GEOMETRIC, sensitivity, budget)
    np.testing.assert_array_equal(
        dg.log_density(deltas), double_geometric_log_pmf(deltas, budget, sensitivity)
    )
    assert dg.log_density(3) == double_geometric_log_pmf(3, budget, sensitivity)
    rr = MechanismSpec(Family.RANDOMIZED_RESPONSE, 1.0, budget)
    with pytest.raises(UnsupportedFamilyError):
        rr.log_density(deltas)


def test_spec_dict_round_trip():
    spec = MechanismSpec(Family.LAPLACE, 2.0, PrivacyBudget(0.25))
    assert MechanismSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_recomputes_scale():
    spec = MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(0.5))
    # a forged scale field in the payload is ignored
    forged = {**spec.to_dict(), "scale": 123.0}
    again = MechanismSpec.from_dict(forged)
    assert again == spec
    assert again.scale == 2.0


def test_laplace_noise_variance_32_at_quarter_epsilon():
    # Delta=1, eps=0.25 -> b=4, Var=2 b^2=32
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.25))
    draws = laplace_noise(stream(1, "lap-var"), spec.scale, 10**6)
    assert abs(draws.var() / 32.0 - 1.0) < 0.01


def test_laplace_noise_mean_near_zero():
    draws = laplace_noise(stream(2, "lap-mean"), 4.0, 10**6)
    se = math.sqrt(32.0 / draws.size)
    assert abs(draws.mean()) < 4 * se


def test_laplace_noise_small_scale_shrinks_to_zero():
    draws = laplace_noise(stream(1, "lap-small"), 1e-12, 3)
    assert np.all(np.abs(draws) < 1e-9)


def test_laplace_noise_rejects_bad_arguments():
    with pytest.raises(ValueError):
        laplace_noise(stream(0, "x"), 0.0, 3)
    with pytest.raises(ValueError):
        laplace_noise(stream(0, "x"), 1.0, 0)


def test_laplace_noise_deterministic_per_stream():
    a = laplace_noise(stream(9, "same"), 2.0, 16)
    b = laplace_noise(stream(9, "same"), 2.0, 16)
    np.testing.assert_array_equal(a, b)


def test_laplace_log_density_values():
    assert laplace_log_density(0.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-15)
    assert laplace_log_density(4.0, 4.0) == pytest.approx(math.log(1 / 8) - 1.0, abs=1e-15)
    u = np.linspace(-30, 30, 101)
    np.testing.assert_array_equal(
        laplace_log_density(u, 2.5), laplace_log_density(-u, 2.5)
    )
    with pytest.raises(ValueError):
        laplace_log_density(1.0, -1.0)


def test_laplace_log_density_no_underflow_at_tiny_epsilon():
    # eps=0.01 -> b=100; log densities stay finite far into the tails
    vals = laplace_log_density(np.array([0.0, 1e4, -1e4]), 100.0)
    assert np.all(np.isfinite(vals))


def test_laplace_log_ratio_bounded_by_epsilon():
    # DP bound on the density ratio for shifts up to the sensitivity
    eps, delta = 0.8, 1.0
    b = delta / eps
    rng = stream(3, "lap-ratio-grid")
    u = rng.uniform(-50, 50, 10_000)
    shift = rng.uniform(-delta, delta, 10_000)
    ratio = laplace_log_density(u - shift, b) - laplace_log_density(u, b)
    assert float(np.max(ratio)) <= eps + 1e-12


def test_double_geometric_pmf_normalizes_and_is_symmetric():
    budget = PrivacyBudget(0.25)
    u = np.arange(-200, 201)
    total = np.exp(double_geometric_log_pmf(u, budget)).sum()
    assert total == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(
        double_geometric_log_pmf(u, budget), double_geometric_log_pmf(-u, budget)
    )


def test_double_geometric_mass_at_zero():
    # (1 - 1/2) / (1 + 1/2) = 1/3 at eps = ln 2
    p0 = math.exp(double_geometric_log_pmf(0, PrivacyBudget(math.log(2.0))))
    assert p0 == pytest.approx(1.0 / 3.0, abs=1e-15)
    # eps large -> all mass at 0
    p0_big = math.exp(double_geometric_log_pmf(0, PrivacyBudget(40.0)))
    assert p0_big == pytest.approx(1.0, abs=1e-12)


def test_double_geometric_noise_matches_pmf():
    budget = PrivacyBudget(0.5)
    draws = double_geometric_noise(stream(4, "dg-hist"), budget, 200_000)
    assert draws.dtype.kind == "i"
    for u in (-2, -1, 0, 1, 2):
        want = math.exp(double_geometric_log_pmf(u, budget))
        got = float(np.mean(draws == u))
        assert abs(got - want) < 0.005
    single = double_geometric_noise(stream(4, "dg-one"), budget, 1)
    assert single.shape == (1,) and single.dtype.kind == "i"


def test_double_geometric_noise_honours_sensitivity():
    # pmf proportional to e^(-eps |u| / Delta): variance 2 q / (1 - q)^2
    # with q = e^(-eps / Delta), about 200 at Delta 5 and eps 0.5, where
    # noise that ignored Delta would have variance 7.8.  The 5-SE band uses
    # the fourth moment of the near-Laplace law (scale 10): 24 b^4.
    budget, delta, n = PrivacyBudget(0.5), 5, 200_000
    q = math.exp(-budget.epsilon / delta)
    law = 2.0 * q / (1.0 - q) ** 2
    draws = double_geometric_noise(stream(4, "dg-sens"), budget, n, delta)
    mean_sq = float(np.mean(draws.astype(float) ** 2))
    assert abs(mean_sq - law) < 5.0 * math.sqrt((24.0 * 10.0**4 - law**2) / n)

    spec = MechanismSpec(Family.DOUBLE_GEOMETRIC, 5.0, budget)
    assert spec.scale == 10.0
    zeros = np.zeros(n, dtype=int)
    noise = privatize_vector(zeros, spec, stream(4, "dg-sens-pv")) - zeros
    assert abs(float(np.mean(noise.astype(float) ** 2)) / law - 1.0) < 0.03


def test_double_geometric_noise_unchanged_at_sensitivity_one():
    # The exponential-floor construction, written out: floor(E / rate) for
    # 2000 standard exponentials, first half minus second half.
    budget = PrivacyBudget(0.7)
    floors = np.floor(stream(4, "dg-one-ref").standard_exponential(2000) / 0.7)
    ref = (floors[:1000] - floors[1000:]).astype(np.int64)
    for sens in (1, 1.0):
        draws = double_geometric_noise(stream(4, "dg-one-ref"), budget, 1000, sens)
        assert draws.dtype == np.int64
        np.testing.assert_array_equal(draws, ref)
    # drawn into a float buffer: the same values, as floats
    buf = np.full(1000, np.nan)
    drawn = double_geometric_noise(stream(4, "dg-one-ref"), budget, 1000, out=buf)
    assert drawn is buf
    np.testing.assert_array_equal(buf, ref.astype(float))


def test_double_geometric_noise_reads_the_stream_as_one_batch_in_chunks():
    # Past _SCRATCH draws the second batch is drawn a chunk at a time; the
    # stream must still be read as by one call.
    count = 2 * mechanisms._SCRATCH + 3
    floors = np.floor(stream(4, "dg-chunks").standard_exponential(2 * count) / 0.7)
    ref = (floors[:count] - floors[count:]).astype(np.int64)
    draws = double_geometric_noise(stream(4, "dg-chunks"), PrivacyBudget(0.7), count)
    np.testing.assert_array_equal(draws, ref)
    buf = np.empty(count)
    double_geometric_noise(stream(4, "dg-chunks"), PrivacyBudget(0.7), count, out=buf)
    np.testing.assert_array_equal(buf, ref.astype(float))


@pytest.mark.parametrize("out", [np.empty(999), np.empty(1001), np.empty((10, 100)),
                                 np.empty(1000, np.float32), np.empty(1000, np.int64)],
                         ids=["short", "long", "2-d", "float32", "int64"])
def test_double_geometric_noise_refuses_a_buffer_of_the_wrong_size_or_dtype(out):
    with pytest.raises(ValueError, match=r"out must be a float64 array of shape \(1000,\)"):
        double_geometric_noise(stream(4, "dg-out"), PrivacyBudget(0.7), 1000, out=out)


@pytest.mark.parametrize("delta", [1, 3])
@pytest.mark.parametrize("rate", [0.05, 0.5, 2.0, 8.0])
def test_double_geometric_noise_law(rate, delta):
    # Every cell |u| <= K and the tail |U| > K lie within 5 binomial SE of
    # the exact pmf at eps = rate * delta, and the signs are symmetric.
    budget, n = PrivacyBudget(rate * delta), 200_000
    draws = double_geometric_noise(stream(4, "dg-law", str(rate), delta), budget, n, delta)
    k = max(1, math.ceil(4.0 / rate))
    cells = np.arange(-k, k + 1)
    want = np.exp(double_geometric_log_pmf(cells, budget, delta))
    got = np.bincount(np.clip(draws, -k - 1, k + 1) + k + 1, minlength=2 * k + 3)
    want = np.append(want, 1.0 - want.sum())
    got = np.append(got[1:-1], got[0] + got[-1])
    se = np.sqrt(n * want * (1.0 - want))
    assert (np.abs(got - n * want) <= 5.0 * se).all(), (got - n * want) / se
    pos, neg = int((draws > 0).sum()), int((draws < 0).sum())
    assert abs(pos - neg) <= 5.0 * math.sqrt(pos + neg)


@pytest.mark.parametrize("count", [0, -1])
def test_double_geometric_noise_needs_a_draw(count):
    with pytest.raises(ValueError, match=f"count must be at least 1, got {count}"):
        double_geometric_noise(stream(4, "dg-count"), PrivacyBudget(1.0), count)


def test_double_geometric_refuses_a_rate_below_its_bound():
    # At rate 1e-20 the old geometric sampler saturated and released 0
    # noise 83.5% of the time; a rate that small is refused outright.
    for eps, delta in ((1e-300, 1), (1e-20, 1), (2e-12, 3)):
        with pytest.raises(ValueError, match="DG_MIN_RATE"):
            MechanismSpec(Family.DOUBLE_GEOMETRIC, float(delta), PrivacyBudget(eps))
        with pytest.raises(ValueError, match="DG_MIN_RATE"):
            double_geometric_noise(stream(4, "dg-min"), PrivacyBudget(eps), 3, delta)
    # just inside the bound: noise of order 1 / rate, never saturated at 0
    spec = MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(DG_MIN_RATE))
    draws = double_geometric_noise(stream(4, "dg-min"), spec.budget, 10_000)
    assert draws.dtype == np.int64
    assert (draws != 0).all()
    assert 0.5 / DG_MIN_RATE < float(np.median(np.abs(draws))) < 2.0 / DG_MIN_RATE


class _ZeroUniforms:
    # random() returning 0 gives the transform's largest |log t|
    def random(self, count):
        return np.zeros(count)


def test_laplace_refuses_a_scale_above_its_bound():
    with pytest.raises(ValueError, match="LAPLACE_MAX_SCALE"):
        MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1e-308))
    with pytest.raises(ValueError, match="LAPLACE_MAX_SCALE"):
        laplace_noise(stream(1, "lap-max"), LAPLACE_MAX_SCALE * (1 + 1e-15), 3)
    # just inside the bound every draw is finite, the extreme one included
    spec = MechanismSpec(Family.LAPLACE, LAPLACE_MAX_SCALE, PrivacyBudget(1.0))
    assert spec.scale == LAPLACE_MAX_SCALE
    draws = laplace_noise(stream(1, "lap-max"), spec.scale, 1000)
    assert np.isfinite(draws).all() and (np.abs(draws) > 1e300).mean() > 0.9
    extreme = laplace_noise(_ZeroUniforms(), spec.scale, 2)
    assert np.isfinite(extreme).all() and (np.abs(extreme) > 1e308).all()


def test_double_geometric_log_pmf_scales_with_sensitivity():
    budget = PrivacyBudget(0.5)
    u = np.arange(-3000, 3001)
    assert np.exp(double_geometric_log_pmf(u, budget, 5)).sum() == pytest.approx(1.0, abs=1e-12)
    gap = double_geometric_log_pmf(0, budget, 5) - double_geometric_log_pmf(5, budget, 5)
    assert gap == pytest.approx(0.5, abs=1e-12)


def test_double_geometric_spec_requires_integer_sensitivity():
    MechanismSpec(Family.DOUBLE_GEOMETRIC, 3.0, PrivacyBudget(1.0))
    with pytest.raises(ValueError):
        MechanismSpec(Family.DOUBLE_GEOMETRIC, 2.5, PrivacyBudget(1.0))
    MechanismSpec(Family.LAPLACE, 2.5, PrivacyBudget(1.0))


def rr_spec(eps):
    return MechanismSpec(Family.RANDOMIZED_RESPONSE, 1.0, PrivacyBudget(eps))


def test_truth_probability_limits():
    assert rr_spec(math.log(3.0)).truth_probability == pytest.approx(0.75)
    assert rr_spec(1e-9).truth_probability == pytest.approx(0.5, abs=1e-9)
    assert 0.5 < rr_spec(0.1).truth_probability < 1.0


def test_randomized_response_empirical_rate():
    spec = rr_spec(math.log(3.0))
    released = privatize_vector(np.ones(100_000, dtype=int), spec, stream(5, "rr-rate"))
    assert abs(np.mean(released == 1) - 0.75) < 0.01
    with pytest.raises(ValueError):
        privatize_vector([2], spec, stream(5, "rr-rate"))


def test_randomized_response_reads_one_uniform_per_answer():
    spec = rr_spec(0.7)
    truths = np.array((0, 1) * 50)
    u = stream(5, "rr-draws").random(truths.size)
    expected = np.where(u < spec.truth_probability, truths, 1 - truths)
    released = privatize_vector(truths, spec, stream(5, "rr-draws"))
    np.testing.assert_array_equal(released, expected)
    # one answer at a time reads the same uniforms in the same order
    rng = stream(5, "rr-draws")
    assert [int(privatize_vector([t], spec, rng)[0]) for t in truths] == expected.tolist()


def test_privatize_vector_laplace_variance():
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.25))
    x = np.arange(200_000) % 17
    released = privatize_vector(x, spec, stream(6, "pv-lap"))
    assert isinstance(released, np.ndarray) and released.shape == x.shape
    assert released.dtype.kind == "f"
    assert abs((released - x).var() / 32.0 - 1.0) < 0.02
    noise = laplace_noise(stream(6, "pv-lap"), spec.scale, x.size)
    np.testing.assert_array_equal(released, x.astype(float) + noise)


def test_privatize_vector_tiny_scale_is_identity():
    spec = MechanismSpec(Family.LAPLACE, 1e-12, PrivacyBudget(1.0))
    x = np.array([3.0, -1.5, 8.0])
    released = privatize_vector(x, spec, stream(6, "pv-id"))
    np.testing.assert_allclose(released, x, atol=1e-9)


def test_privatize_vector_double_geometric_integer_closure():
    spec = MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(0.5))
    counts = np.array([0, 5, 12, 3])
    released = privatize_vector(counts, spec, stream(7, "pv-dg"))
    assert released.dtype.kind == "i"
    noise = double_geometric_noise(stream(7, "pv-dg"), spec.budget, counts.size)
    np.testing.assert_array_equal(released - counts, noise)
    with pytest.raises(ValueError):
        privatize_vector(np.array([1.5, 2.0]), spec, stream(7, "pv-dg-frac"))


def test_privatize_vector_rr_requires_bits():
    spec = MechanismSpec(Family.RANDOMIZED_RESPONSE, 1.0, PrivacyBudget(1.0))
    released = privatize_vector(np.array([0, 1, 1, 0]), spec, stream(8, "pv-rr"))
    assert set(np.unique(released)) <= {0, 1}
    with pytest.raises(ValueError):
        privatize_vector(np.array([0, 2]), spec, stream(8, "pv-rr-bad"))


def test_privatize_vector_rejects_empty_and_nonfinite():
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    with pytest.raises(ValueError):
        privatize_vector(np.array([]), spec, stream(0, "e"))
    with pytest.raises(ValueError):
        privatize_vector(np.array([1.0, float("nan")]), spec, stream(0, "e"))


def test_privatize_vector_refuses_a_laplace_release_that_overflows():
    # Values at the top of the float range plus noise of scale 2.5e305
    # overflowed to inf and were published.
    top = float(np.finfo(float).max)
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(4e-306))
    with pytest.raises(ValueError, match="Laplace release overflows to inf"):
        privatize_vector([top] * 8, spec, stream(9, "pv-over"))
    # at the top of the range, noise of order 1 rounds away and the release is finite
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    released = privatize_vector([top, -top], spec, stream(9, "pv-top"))
    assert released.tolist() == [top, -top]


def test_privatize_vector_refuses_double_geometric_values_past_2_pow_53():
    # 1e19 was cast to int64 and published as -2^63.
    spec = MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(1.0))
    assert DG_MAX_VALUE == 2**53
    for values in ([1e19, 5.0], [0.0, -(2.0**53 + 2)]):
        with pytest.raises(ValueError, match="DG_MAX_VALUE=9007199254740992"):
            privatize_vector(values, spec, stream(9, "pv-big"))
    # at the bound the release is the value plus its integer noise, unwrapped
    values = np.array([2.0**53, -(2.0**53)])
    released = privatize_vector(values, spec, stream(9, "pv-edge"))
    noise = double_geometric_noise(stream(9, "pv-edge"), spec.budget, 2)
    assert released.dtype == np.int64
    assert released.tolist() == [2**53 + int(noise[0]), -(2**53) + int(noise[1])]


def test_verify_dp_randomized_response_exact():
    report = verify_dp_discrete(Family.RANDOMIZED_RESPONSE, PrivacyBudget(math.log(3.0)))
    assert isinstance(report, DpReport)
    # algebraic cancellation makes the ratio bit-equal to the budget
    assert report.max_log_ratio == math.log(3.0)
    assert report.satisfied


def test_verify_dp_double_geometric_bound():
    report = verify_dp_discrete(Family.DOUBLE_GEOMETRIC, PrivacyBudget(0.25))
    assert report.max_log_ratio <= 0.25 + 1e-10
    assert report.satisfied


def test_verify_dp_falsifies_understated_claim():
    report = verify_dp_discrete(
        Family.DOUBLE_GEOMETRIC,
        PrivacyBudget(0.25),
        claimed=PrivacyBudget(0.125),
    )
    assert not report.satisfied
    assert report.epsilon_claimed == 0.125


def test_verify_dp_double_geometric_at_sensitivity_five():
    report = verify_dp_discrete(
        Family.DOUBLE_GEOMETRIC, PrivacyBudget(0.5), sensitivity=5
    )
    assert report.max_log_ratio == 0.5
    assert report.satisfied
    # the same mechanism judged on inputs 0 and 1 only would report 0.1
    assert verify_dp_discrete(Family.DOUBLE_GEOMETRIC, PrivacyBudget(0.1)).max_log_ratio == 0.1


@pytest.mark.parametrize("delta", [1, 2, 5, 9])
@pytest.mark.parametrize("eps", [0.1, 0.5, 2.0])
def test_verify_dp_double_geometric_range_covers_every_ratio(eps, delta):
    # The log ratio between inputs 0 and delta at output o is
    # -eps (|o| - |o - delta|) / delta; the verifier's own range must find
    # its largest magnitude over a much wider range of outputs, eps.
    out = np.arange(-100, 101)
    widest = float(np.max(np.abs(-eps * ((np.abs(out) - np.abs(out - delta)) / delta))))
    budget = PrivacyBudget(eps)
    report = verify_dp_discrete(Family.DOUBLE_GEOMETRIC, budget, sensitivity=delta)
    assert report.max_log_ratio == widest == eps
    assert report.satisfied
    half = verify_dp_discrete(Family.DOUBLE_GEOMETRIC, budget,
                              claimed=PrivacyBudget(eps / 2), sensitivity=delta)
    assert not half.satisfied


@pytest.mark.parametrize("delta", [10**12, 10**40])
def test_verify_dp_double_geometric_scan_does_not_grow_with_sensitivity(delta):
    report = verify_dp_discrete(Family.DOUBLE_GEOMETRIC, PrivacyBudget(1.0), sensitivity=delta)
    assert report.max_log_ratio == 1.0
    assert report.satisfied


def test_verify_dp_rejects_bad_sensitivity():
    with pytest.raises(ValueError):
        verify_dp_discrete(Family.DOUBLE_GEOMETRIC, PrivacyBudget(0.5), sensitivity=2.5)
    with pytest.raises(ValueError):
        verify_dp_discrete(Family.DOUBLE_GEOMETRIC, PrivacyBudget(0.5), sensitivity=0)
    with pytest.raises(ValueError):
        verify_dp_discrete(Family.RANDOMIZED_RESPONSE, PrivacyBudget(0.5), sensitivity=2)
    # claimed is keyword-only, so an old positional scan bound is refused
    with pytest.raises(TypeError):
        verify_dp_discrete(Family.DOUBLE_GEOMETRIC, PrivacyBudget(0.5), 100)


def test_verify_dp_rejects_continuous_family():
    with pytest.raises(UnsupportedFamilyError):
        verify_dp_discrete(Family.LAPLACE, PrivacyBudget(1.0))
