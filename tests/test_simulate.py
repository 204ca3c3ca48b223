import json
import warnings

import numpy as np
import pytest
from scipy import stats

from transparent_dp.cli import main
from transparent_dp.errors import UnsupportedFamilyError
from transparent_dp.mechanisms import Family, MechanismSpec, PrivacyBudget
from transparent_dp.rng import stream
from transparent_dp.simulate import (
    ConfidentialDataset,
    PrivatizedDataset,
    RegressionParams,
    _SLICE,
    dataset_from_dict,
    dataset_from_json,
    dataset_to_dict,
    dataset_to_json,
    gen_confidential,
    json_parts,
    privatize_dataset,
)

REF_PARAMS = RegressionParams(beta0=-5.0, beta1=4.0, sigma=5.0, lam=10.0)


def test_params_validation():
    with pytest.raises(ValueError):
        RegressionParams(0.0, 1.0, sigma=0.0, lam=10.0)
    with pytest.raises(ValueError):
        RegressionParams(0.0, 1.0, sigma=5.0, lam=-1.0)


def test_gen_confidential_reference_params():
    data = gen_confidential(10, REF_PARAMS, stream(0, "gen"), seed=0)
    assert data.x.shape == (10,)
    assert data.y.shape == (10,)
    assert data.x.dtype.kind == "i"
    assert np.all(data.x >= 0)
    assert data.params == REF_PARAMS


def test_gen_confidential_rejects_tiny_n():
    with pytest.raises(ValueError):
        gen_confidential(2, REF_PARAMS, stream(0, "gen"))


def test_gen_confidential_zero_sigma_limit():
    params = RegressionParams(beta0=-5.0, beta1=4.0, sigma=1e-12, lam=10.0)
    data = gen_confidential(50, params, stream(1, "gen-s0"))
    np.testing.assert_allclose(data.y, -5.0 + 4.0 * data.x, atol=1e-9)


def test_gen_confidential_poisson_mean():
    data = gen_confidential(10**5, REF_PARAMS, stream(2, "gen-mean"))
    assert abs(data.x.mean() - 10.0) < 0.1


def test_gen_confidential_bit_reproducible():
    a = gen_confidential(20, REF_PARAMS, stream(3, "gen-rep"), seed=3)
    b = gen_confidential(20, REF_PARAMS, stream(3, "gen-rep"), seed=3)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_privatize_dataset_records_specs():
    data = gen_confidential(10, REF_PARAMS, stream(4, "priv"), seed=4)
    priv = privatize_dataset(data, PrivacyBudget(0.25), PrivacyBudget(1.0), stream(4, "priv-n"))
    assert priv.n == 10
    assert priv.spec_x.family is Family.LAPLACE
    assert priv.spec_x.scale == 4.0
    assert priv.spec_y.scale == 1.0
    assert priv.spec_x.budget.epsilon == 0.25
    assert priv.spec_y.budget.epsilon == 1.0
    assert priv.parent_seed == 4


def test_privatize_dataset_noise_is_declared_laplace():
    data = gen_confidential(10**5, REF_PARAMS, stream(5, "priv-ks"), seed=5)
    priv = privatize_dataset(data, PrivacyBudget(0.25), PrivacyBudget(0.25), stream(5, "priv-ks-n"))
    u = np.asarray(priv.x_tilde) - data.x
    res = stats.kstest(u, stats.laplace(scale=4.0).cdf)
    assert res.pvalue > 0.001
    assert abs(u.var() / 32.0 - 1.0) < 0.02


def test_privatize_dataset_large_epsilon_is_near_identity():
    data = gen_confidential(30, REF_PARAMS, stream(6, "priv-id"), seed=6)
    priv = privatize_dataset(data, PrivacyBudget(1e6), PrivacyBudget(1e6), stream(6, "priv-id-n"))
    np.testing.assert_allclose(priv.x_tilde, data.x, atol=1e-3)
    np.testing.assert_allclose(priv.y_tilde, data.y, atol=1e-3)


def test_confidential_dataset_validates_lengths():
    with pytest.raises(ValueError):
        ConfidentialDataset(x=[1, 2], y=[1.0, 2.0], params=REF_PARAMS, seed=0)
    with pytest.raises(ValueError):
        ConfidentialDataset(x=[1, 2, 3], y=[1.0, 2.0], params=REF_PARAMS, seed=0)


def test_csv_privatized_header(capsys):
    assert main(["simulate", "--n", "4", "--beta0=-5", "--beta1", "4", "--sigma", "5",
                 "--lam", "10", "--epsilon-x", "0.25", "--epsilon-y", "0.25", "--seed", "8",
                 "--format", "csv"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "i,x_tilde,y_tilde"
    data = gen_confidential(4, REF_PARAMS, stream(8, "simulate", "confidential"), seed=8)
    priv = privatize_dataset(data, PrivacyBudget(0.25), PrivacyBudget(0.25),
                             stream(8, "simulate", "privatize"))
    # repr round-trip keeps every bit of the release
    cell = lines[1].split(",")[1]
    assert float(cell) == priv.x_tilde[0]
    assert lines[1:] == [f"{i},{x!r},{y!r}"
                         for i, (x, y) in enumerate(zip(priv.x_tilde.tolist(),
                                                        priv.y_tilde.tolist()))]


def test_json_round_trip_confidential():
    data = gen_confidential(6, REF_PARAMS, stream(9, "json"), seed=9)
    again = dataset_from_json(dataset_to_json(data))
    assert isinstance(again, ConfidentialDataset)
    np.testing.assert_array_equal(again.x, data.x)
    np.testing.assert_array_equal(again.y, data.y)
    assert again.params == data.params
    assert again.seed == data.seed


def test_json_round_trip_privatized():
    data = gen_confidential(6, REF_PARAMS, stream(10, "jsonp"), seed=10)
    priv = privatize_dataset(data, PrivacyBudget(0.5), PrivacyBudget(0.25), stream(10, "jsonp-n"))
    again = dataset_from_json(dataset_to_json(priv))
    assert isinstance(again, PrivatizedDataset)
    np.testing.assert_array_equal(again.x_tilde, priv.x_tilde)
    np.testing.assert_array_equal(again.y_tilde, priv.y_tilde)
    assert again.spec_x == priv.spec_x
    assert again.spec_y == priv.spec_y


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        dataset_from_json('{"kind": "mystery"}')


def test_dict_forms_match_json_forms():
    data = gen_confidential(6, REF_PARAMS, stream(11, "dict"), seed=11)
    priv = privatize_dataset(data, PrivacyBudget(0.5), PrivacyBudget(0.25), stream(11, "dict-n"))
    for ds in (data, priv):
        assert dataset_to_json(ds) == json.dumps(dataset_to_dict(ds), sort_keys=True)
        again = dataset_from_dict(json.loads(dataset_to_json(ds)))
        assert dataset_to_json(again) == dataset_to_json(ds)
    with pytest.raises(ValueError):
        dataset_from_dict(["privatized"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_datasets_reject_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        ConfidentialDataset(x=[1.0, bad, 2.0], y=[0.0, 1.0, 2.0], params=REF_PARAMS, seed=0)
    with pytest.raises(ValueError, match="finite"):
        ConfidentialDataset(x=[1, 2, 3], y=[0.0, bad, 2.0], params=REF_PARAMS, seed=0)
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
    with pytest.raises(ValueError, match="finite"):
        PrivatizedDataset(x_tilde=[1.0, bad, 2.0], y_tilde=[0.0, 1.0, 2.0],
                          spec_x=spec, spec_y=spec, parent_seed=0)
    with pytest.raises(ValueError, match="finite"):
        PrivatizedDataset(x_tilde=[1.0, 1.5, 2.0], y_tilde=[0.0, 1.0, bad],
                          spec_x=spec, spec_y=spec, parent_seed=0)


LAP = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(1.0))
DG = MechanismSpec(Family.DOUBLE_GEOMETRIC, 1.0, PrivacyBudget(1.0))
RR = MechanismSpec(Family.RANDOMIZED_RESPONSE, 1.0, PrivacyBudget(1.0))


@pytest.mark.parametrize("x_tilde, y_tilde, spec_x, spec_y, error, match", [
    ([1.0, 2.0], [3.0, 4.0], LAP, DG, UnsupportedFamilyError, "Laplace y release"),
    ([0.0, 1.0], [3.0, 4.0], RR, LAP, UnsupportedFamilyError, "randomized_response"),
    ([1.0, 2.5], [3.0, 4.0], DG, LAP, ValueError, "integer x_tilde"),
    ([], [], LAP, LAP, ValueError, "at least one record"),
], ids=["double_geometric_y", "randomized_response_x", "fractional_double_geometric_x",
        "empty"])
def test_privatized_dataset_refuses_a_spec_its_values_cannot_have(
    x_tilde, y_tilde, spec_x, spec_y, error, match
):
    with pytest.raises(error, match=match):
        PrivatizedDataset(x_tilde=x_tilde, y_tilde=y_tilde, spec_x=spec_x,
                          spec_y=spec_y, parent_seed=0)
    # the envelope form is built through the same constructor
    obj = {"kind": "privatized", "parent_seed": 0, "x_tilde": x_tilde, "y_tilde": y_tilde,
           "spec_x": spec_x.to_dict(), "spec_y": spec_y.to_dict()}
    with pytest.raises(error, match=match):
        dataset_from_dict(obj)


def _malformed(kind, edit):
    data = gen_confidential(4, REF_PARAMS, stream(12, "bad"), seed=12)
    if kind == "privatized":
        data = privatize_dataset(data, PrivacyBudget(1.0), PrivacyBudget(1.0),
                                 stream(12, "bad-n"))
    obj = json.loads(dataset_to_json(data))
    edit(obj)
    return obj


@pytest.mark.parametrize("kind, edit, field", [
    ("privatized", lambda o: o.pop("x_tilde"), "x_tilde"),
    ("privatized", lambda o: o.update(y_tilde={"0": 1.0}), "y_tilde"),
    ("privatized", lambda o: o.update(x_tilde=[{}] * 4), "x_tilde"),
    ("privatized", lambda o: o["spec_x"].pop("family"), "spec_x"),
    ("confidential", lambda o: o.update(params=[-5.0, 4.0, 5.0, 10.0]), "params"),
    ("confidential", lambda o: o["params"].pop("lam"), "lam"),
    ("confidential", lambda o: o.update(seed="12"), "seed"),
    ("confidential", lambda o: o.update(x=["a"] * 4), "'x'"),
])
def test_dataset_from_dict_names_malformed_field(kind, edit, field):
    # a KeyError or TypeError here would escape the CLI as a traceback
    with pytest.raises(ValueError, match=field):
        dataset_from_dict(_malformed(kind, edit))


def _outcome(obj):
    """The fields of ``dataset_from_dict(obj)``, or its error's type and text."""
    try:
        ds = dataset_from_dict(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return [(k, (v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else v)
            for k, v in vars(ds).items()]


@pytest.mark.parametrize("kind, field, value", [
    ("confidential", "x", [3, 1, 4, 1]),
    ("confidential", "y", [3, 1.5, -4.0, 1e300]),
    ("privatized", "x_tilde", [0.5, -2.0, 3.25, 7]),
    ("confidential", "seed", [12, 13]),
    ("privatized", "spec_x", [1, 2]),
    ("privatized", "parent_seed", [5]),
], ids=["x", "y", "x_tilde", "seed", "spec", "parent-seed"])
def test_dataset_from_dict_takes_an_array_as_the_list_of_numbers(kind, field, value):
    # A reader may give a list of numbers as the ndarray np.asarray makes of
    # it: the dataset, or the error naming the field, is the same.
    outcomes = []
    for val in (value, np.asarray(value)):
        obj = _malformed(kind, lambda o: None)
        obj[field] = val
        outcomes.append(_outcome(obj))
    assert outcomes[0] == outcomes[1]


def test_gen_confidential_overflow_is_named_without_warnings():
    # beta1 * x overflows, and beta0 + beta1 * x overflows in the add
    for beta0, beta1 in ((0.0, 1e308), (1.7e308, 1e307)):
        params = RegressionParams(beta0=beta0, beta1=beta1, sigma=1.0, lam=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x and y must be finite"):
                gen_confidential(5, params, stream(13, "overflow"))


def sliced_datasets(n):
    """A confidential and a privatized dataset of n records whose floats
    include ones that print in exponent form."""
    gen = np.random.default_rng(n)
    y = gen.normal(0.0, 1.0, n)
    y[:4] = [1e-05, 1e+16, -2.5e-300, 1.7976931348623157e308]
    conf = ConfidentialDataset(x=gen.poisson(10.0, n), y=y, params=REF_PARAMS, seed=n)
    spec = MechanismSpec(Family.LAPLACE, 1.0, PrivacyBudget(0.5))
    priv = PrivatizedDataset(x_tilde=y[::-1] - 0.5, y_tilde=y, spec_x=spec, spec_y=spec,
                             parent_seed=n)
    return conf, priv


@pytest.mark.parametrize("n", [_SLICE - 1, _SLICE, _SLICE + 1])
def test_json_parts_write_json_dumps_text_in_bounded_slices(n):
    conf, priv = sliced_datasets(n)
    for ds in (conf, priv):
        parts = list(json_parts(ds))
        assert "".join(parts) == json.dumps(dataset_to_dict(ds), sort_keys=True)
        assert dataset_to_json(ds) == "".join(parts)
        # a piece holds at most _SLICE values, so fewer than _SLICE commas
        assert max(p.count(",") for p in parts) < _SLICE
    envelope = {"privatized": priv, "confidential": conf}
    assert "".join(json_parts(envelope)) == json.dumps(
        {key: dataset_to_dict(ds) for key, ds in envelope.items()}, sort_keys=True
    )


REAL_DUMPS = json.dumps


def write_noting_fallback(obj, monkeypatch):
    """``json_parts(obj)`` joined, and whether a slice went through json.dumps."""
    text, lists, _ = write_noting_dumps(obj, monkeypatch)
    return text, bool(lists)


def write_noting_dumps(obj, monkeypatch):
    """``json_parts(obj)`` joined, the length of each list that went through
    json.dumps, and each float that went through it alone."""
    lists, floats = [], []

    def dumps(value, *args, **kwargs):
        if isinstance(value, list):
            lists.append(len(value))
        elif isinstance(value, float):
            floats.append(value)
        return REAL_DUMPS(value, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(json, "dumps", dumps)
        text = "".join(json_parts(obj))
    return text, lists, floats


def assert_written_as_json_dumps(arr, monkeypatch, fast):
    text, fell_back = write_noting_fallback(arr, monkeypatch)
    assert text == json.dumps(arr.tolist())
    assert fell_back is not fast


def in_fixed_range(v):
    """Values that Python's float repr prints without an exponent."""
    a = np.abs(v)
    return (a == 0) | ((a >= 1e-4) & (a < 1e16))


def test_json_parts_formats_every_float64_as_json_dumps(monkeypatch):
    gen = np.random.default_rng(16)
    bits = gen.integers(0, 2**64, 10**6, dtype=np.uint64)
    # every exponent, NaN and inf among them, and both signs
    assert np.unique(bits >> np.uint64(52)).size == 4096
    floats = bits.view(np.float64)
    assert_written_as_json_dumps(floats, monkeypatch, fast=False)
    assert_written_as_json_dumps(floats[in_fixed_range(floats)], monkeypatch, fast=True)
    spread = gen.choice([-1.0, 1.0], 10**5) * 10.0 ** gen.uniform(-4, 16, 10**5)
    whole = gen.integers(-2**53, 2**53, 10**5).astype(float)
    assert_written_as_json_dumps(np.concatenate([spread, whole, [0.5, 1e15, 0.1]]),
                                 monkeypatch, fast=True)
    # Slices that mix both kinds: orjson writes the runs between the values
    # printed in exponent form or not finite, and json.dumps each of those.
    odd = np.concatenate([floats[~in_fixed_range(floats)][:40],
                          [np.nan, np.inf, -np.inf, 1e-5, -1e16, 5e-324]])
    mixed = gen.normal(0.0, 20.0, 3 * _SLICE)
    at = np.concatenate([[0, 1, 2, _SLICE - 1, _SLICE, 3 * _SLICE - 1],
                         gen.choice(np.arange(3, 3 * _SLICE - 1), odd.size - 6, replace=False)])
    mixed[at] = odd
    text, lists, alone = write_noting_dumps(mixed, monkeypatch)
    assert text == json.dumps(mixed.tolist())
    # (a normal draw can itself fall below 1e-4)
    assert lists == [] and REAL_DUMPS(alone) == REAL_DUMPS(
        mixed[~in_fixed_range(mixed)].tolist())
    assert len(alone) >= odd.size
    # past one such value in 32, the whole slice goes through json.dumps
    dense = mixed[:_SLICE].copy()
    dense[::31] = 1e-5
    text, lists, alone = write_noting_dumps(dense, monkeypatch)
    assert text == json.dumps(dense.tolist()) and lists == [_SLICE] and alone == []


def test_json_parts_formats_float64_edges_as_json_dumps(monkeypatch):
    subnormal = (np.random.default_rng(17).integers(1, 2**52, 1000, dtype=np.uint64)
                 | np.uint64(2**63)).view(np.float64)
    tiny = np.array([5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0)])
    assert_written_as_json_dumps(np.concatenate([subnormal, -subnormal, tiny]),
                                 monkeypatch, fast=False)
    assert_written_as_json_dumps(np.array([0.0, -0.0, 0.0]), monkeypatch, fast=True)
    for v, fast in ((np.nextafter(1e-4, 0.0), False), (1e-4, True),
                    (np.nextafter(1e-4, 1.0), True), (np.nextafter(1e16, 0.0), True),
                    (1e16, False), (np.nextafter(1e16, np.inf), False)):
        assert_written_as_json_dumps(np.array([1.5, v, -v]), monkeypatch, fast=fast)
    for bad in (np.nan, np.inf, -np.inf):
        assert_written_as_json_dumps(np.array([1.5, bad]), monkeypatch, fast=False)


def test_json_parts_formats_other_arrays_as_json_dumps(monkeypatch):
    i64 = np.iinfo(np.int64)
    extremes = np.array([i64.min, i64.min + 1, -1, 0, 1, i64.max - 1, i64.max])
    assert_written_as_json_dumps(extremes, monkeypatch, fast=True)
    gen = np.random.default_rng(18)
    values = gen.normal(0.0, 100.0, 3 * _SLICE)
    # a strided view is copied to a contiguous buffer and takes the fast path
    assert_written_as_json_dumps(values[::3], monkeypatch, fast=True)
    assert_written_as_json_dumps(gen.integers(-9, 9, 2 * _SLICE)[::2], monkeypatch, fast=True)
    for arr in (values.astype(np.float32), gen.integers(-2**31, 2**31, 1000, dtype=np.int32),
                np.array([0, 2**63, 2**64 - 1], dtype=np.uint64), np.array([True, False])):
        assert_written_as_json_dumps(arr, monkeypatch, fast=False)
    assert "".join(json_parts(np.array([], dtype=float))) == "[]"


def test_json_parts_writes_a_seeded_release_on_the_fast_path(monkeypatch):
    conf = gen_confidential(3 * _SLICE + 1, REF_PARAMS, stream(16, "conf"), seed=16)
    priv = privatize_dataset(conf, PrivacyBudget(1.0), PrivacyBudget(1.0), stream(16, "priv"))
    for ds in (conf, priv):
        text, fell_back = write_noting_fallback(ds, monkeypatch)
        assert not fell_back
        assert text == json.dumps(dataset_to_dict(ds), sort_keys=True)
