import json
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from transparent_dp import metrics
from transparent_dp.cli import main
from transparent_dp.errors import UndefinedIndexError
from transparent_dp.mechanisms import PrivacyBudget, double_geometric_noise
from transparent_dp.metrics import (
    CountyTable,
    DissimilarityStudy,
    county_table_from_csv,
    dissimilarity,
    privatized_dissimilarity_study,
)
from transparent_dp.rng import stream


def test_dissimilarity_perfect_segregation():
    table = CountyTable.from_counts([100.0, 0.0], [0.0, 100.0])
    assert dissimilarity(table) == 1.0


def test_dissimilarity_identical_distributions():
    table = CountyTable.from_counts([30.0, 60.0, 10.0], [3.0, 6.0, 1.0])
    assert dissimilarity(table) == pytest.approx(0.0, abs=1e-15)


def test_dissimilarity_hand_value():
    table = CountyTable.from_counts([60.0, 40.0], [20.0, 80.0])
    assert dissimilarity(table) == pytest.approx(0.4, abs=1e-12)


def test_dissimilarity_rescaling_invariance():
    w = np.array([12.0, 7.0, 31.0])
    b = np.array([4.0, 9.0, 2.0])
    base = dissimilarity(CountyTable.from_counts(w, b))
    for c in (0.5, 3.0, 1000.0):
        scaled = CountyTable(w=c * w, b=b, w_cty=c * w.sum(), b_cty=b.sum())
        assert dissimilarity(scaled) == base


def test_dissimilarity_bounds_on_consistent_tables():
    rng = stream(120, "bounds")
    for _ in range(50):
        w = rng.integers(0, 50, 6).astype(float)
        b = rng.integers(0, 50, 6).astype(float)
        if w.sum() == 0 or b.sum() == 0:
            continue
        d = dissimilarity(CountyTable.from_counts(w, b))
        assert 0.0 <= d <= 1.0


def test_dissimilarity_undefined_totals():
    with pytest.raises(UndefinedIndexError):
        dissimilarity(CountyTable(w=[1.0], b=[1.0], w_cty=0.0, b_cty=5.0))
    with pytest.raises(UndefinedIndexError):
        dissimilarity(CountyTable(w=[1.0], b=[1.0], w_cty=5.0, b_cty=-2.0))


def test_county_table_validation():
    with pytest.raises(ValueError):
        CountyTable.from_counts([1.0, -2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        CountyTable(w=[1.0, 2.0], b=[1.0], w_cty=3.0, b_cty=1.0)
    with pytest.raises(ValueError):
        CountyTable(w=[], b=[], w_cty=0.0, b_cty=0.0)


@pytest.mark.parametrize("table, named", [
    (dict(w=[math.nan, 1.0], b=[1.0, 1.0], w_cty=1.0, b_cty=2.0), "w[0]=nan"),
    (dict(w=[1.0, 1.0], b=[1.0, -math.inf], w_cty=2.0, b_cty=2.0), "b[1]=-inf"),
    (dict(w=[1.0, 1.0], b=[1.0, 1.0], w_cty=math.inf, b_cty=2.0), "w_cty=inf"),
    (dict(w=[1.0, 1.0], b=[1.0, 1.0], w_cty=2.0, b_cty=math.nan), "b_cty=nan"),
])
def test_county_table_refuses_nonfinite_counts(table, named):
    # a privatized table is built directly, not through from_counts
    with pytest.raises(ValueError, match=r"counts must be finite, got .*" + re.escape(named)):
        CountyTable(**table)


def small_county():
    return CountyTable.from_counts([8.0, 7.0, 5.0], [3.0, 1.0, 4.0])


def big_county():
    return CountyTable.from_counts([60000.0, 25000.0, 15000.0], [9000.0, 4000.0, 7000.0])


def test_study_large_epsilon_recovers_confidential_index():
    table = small_county()
    study = privatized_dissimilarity_study(
        table, PrivacyBudget(40.0), 200, stream(121, "study-id")
    )
    # at eps=40 the noise is 0 with probability ~1
    assert study.sd == 0.0
    assert study.mean == pytest.approx(dissimilarity(table), abs=1e-12)
    assert study.undefined_fraction == 0.0


def test_study_small_county_has_undefined_outcomes():
    study = privatized_dissimilarity_study(
        small_county(), PrivacyBudget(0.25), 10**4, stream(122, "study-small")
    )
    assert study.undefined_fraction > 0.0
    assert study.out_of_range_fraction > 0.0
    assert study.replicates == 10**4
    assert study.epsilon == 0.25
    assert set(study.quantiles) == {0.05, 0.25, 0.5, 0.75, 0.95}
    qs = [study.quantiles[q] for q in sorted(study.quantiles)]
    assert qs == sorted(qs)


def test_study_large_county_is_tighter():
    small = privatized_dissimilarity_study(
        small_county(), PrivacyBudget(0.25), 10**4, stream(123, "study-a")
    )
    big = privatized_dissimilarity_study(
        big_county(), PrivacyBudget(0.25), 10**4, stream(123, "study-b")
    )
    assert big.sd < small.sd
    assert big.undefined_fraction == 0.0
    # noise of order 1/eps is negligible against 1e5-scale counts
    assert abs(big.mean - dissimilarity(big_county())) < 1e-3


def test_study_deterministic_given_seed():
    a = privatized_dissimilarity_study(
        small_county(), PrivacyBudget(0.5), 500, stream(124, "study-det")
    )
    b = privatized_dissimilarity_study(
        small_county(), PrivacyBudget(0.5), 500, stream(124, "study-det")
    )
    assert a == b


def test_study_rejects_tiny_replicates():
    with pytest.raises(ValueError):
        privatized_dissimilarity_study(
            small_county(), PrivacyBudget(0.5), 1, stream(125, "study-r1")
        )


@pytest.mark.parametrize("table, message", [
    (CountyTable.from_counts([2.0**53, 3.0], [1.0, 1.0]), "got 9007199254740996.0"),
    (CountyTable(w=[1.0, 2.0], b=[1.0, 1.0], w_cty=3.0, b_cty=-(2.0**54)), "got 1.8"),
    (CountyTable(w=[1.0, 2.0], b=[1.0, 1.5], w_cty=3.0, b_cty=2.5), "integer values"),
])
def test_study_refuses_values_the_double_geometric_cannot_noise(table, message):
    # each cell of the first table is in range; its w total, 2^53 + 3 rounded
    # to 2^53 + 4, is not
    with pytest.raises(ValueError, match=message):
        privatized_dissimilarity_study(table, PrivacyBudget(0.5), 10, stream(0, "dg"))


def test_study_json_summary(capsys, tmp_path):
    # small_county() as the tract CSV that `tdp dissimilarity` reads
    tracts = tmp_path / "tracts.csv"
    tracts.write_text("tract,w,b\n0,8,3\n1,7,1\n2,5,4\n")
    assert main(["dissimilarity", "--input", str(tracts), "--epsilon", "0.5",
                 "--replicates", "100", "--seed", "126"]) == 0
    lines = capsys.readouterr().out.splitlines()
    obj = json.loads("\n".join(ln for ln in lines if not ln.startswith("#")))
    study = privatized_dissimilarity_study(
        small_county(), PrivacyBudget(0.5), 100, stream(126, "dissimilarity")
    )
    assert obj["replicates"] == 100
    assert obj["epsilon"] == 0.5
    assert obj["mean"] == study.mean
    assert obj["quantiles"]["0.5"] == study.quantiles[0.5]


def test_study_all_undefined_yields_nan_moments():
    # totals so small and noise so heavy that most replicates lose the
    # denominator; construct the degenerate extreme directly
    table = CountyTable(w=[1.0], b=[1.0], w_cty=0.0, b_cty=0.0)
    study = privatized_dissimilarity_study(
        table, PrivacyBudget(40.0), 50, stream(127, "study-nan")
    )
    assert study.undefined_fraction == 1.0
    assert math.isnan(study.mean)
    assert math.isnan(study.sd)


def test_county_table_from_csv():
    text = "tract,w,b\n0,60,20\n1,40,80\n"
    table = county_table_from_csv(text)
    np.testing.assert_array_equal(table.w, [60.0, 40.0])
    np.testing.assert_array_equal(table.b, [20.0, 80.0])
    assert table.w_cty == 100.0
    assert dissimilarity(table) == pytest.approx(0.4)


def test_county_table_from_csv_skips_comments():
    text = "# release v1\ntract,w,b\n0,10,5\n"
    table = county_table_from_csv(text)
    assert table.w_cty == 10.0


def test_county_table_from_csv_errors():
    with pytest.raises(ValueError):
        county_table_from_csv("w,b\n1,2\n")
    with pytest.raises(ValueError):
        county_table_from_csv("tract,w,b\n0,1\n")


def whole_array_study(table, eps, replicates, rng):
    # The study as it was before the block loop: all (replicates, m) noise
    # drawn at once.  A study of at most 65 536 cells must still equal it.
    m = table.w.size
    shares = table.w + double_geometric_noise(rng, eps, replicates * m).reshape(replicates, m)
    b_noisy = table.b + double_geometric_noise(rng, eps, replicates * m).reshape(replicates, m)
    w_tot = table.w_cty + double_geometric_noise(rng, eps, replicates)
    b_tot = table.b_cty + double_geometric_noise(rng, eps, replicates)
    defined = (w_tot > 0) & (b_tot > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares /= w_tot[:, None]
        b_noisy /= b_tot[:, None]
        shares -= b_noisy
    np.abs(shares, out=shares)
    d = np.where(defined, 0.5 * shares.sum(axis=1), np.nan)
    vals = d[defined]
    undefined_fraction = 1.0 - defined.mean()
    out_of_range = ((vals < 0) | (vals > 1)).mean() if vals.size else 0.0
    if vals.size:
        mean = float(vals.mean())
        sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        quantiles = {q: float(np.quantile(vals, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
    else:
        mean, sd = math.nan, math.nan
        quantiles = {q: math.nan for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
    return DissimilarityStudy(mean=mean, sd=sd, quantiles=quantiles,
                              undefined_fraction=float(undefined_fraction),
                              out_of_range_fraction=float(out_of_range),
                              replicates=replicates, epsilon=eps.epsilon)


def wide_county(m, seed):
    g = stream(seed, "wide-county")
    return CountyTable.from_counts(g.integers(20, 2000, m), g.integers(20, 2000, m))


@pytest.mark.parametrize("table, eps, replicates", [
    (small_county(), 0.25, 10**4),                         # undefined and out of range
    (CountyTable.from_counts([3.0, 1.0], [1.0, 2.0]), 0.1, 300),   # mostly undefined
    (wide_county(300, 127), 0.5, 218),                     # exactly one full block
])
def test_one_block_study_equals_the_whole_array_study(table, eps, replicates):
    budget = PrivacyBudget(eps)
    study = privatized_dissimilarity_study(table, budget, replicates, stream(127, "one-block"))
    ref = whole_array_study(table, budget, replicates, stream(127, "one-block"))
    assert study == ref


def test_study_draws_w_b_and_totals_block_by_block():
    # 3000 tracts: blocks of 65536 // 3000 = 21 replicates, the last one 8.
    # Block 0 reads the caller's stream, block j child j - 1 of its spawn.
    table, eps = wide_county(3000, 128), PrivacyBudget(0.5)
    study = privatized_dissimilarity_study(table, eps, 50, stream(128, "layout"))
    rng, d = stream(128, "layout"), []
    for k, g in zip((21, 21, 8), [rng, *rng.spawn(2)]):
        w = table.w + double_geometric_noise(g, eps, k * 3000).reshape(k, 3000)
        b = table.b + double_geometric_noise(g, eps, k * 3000).reshape(k, 3000)
        w_tot = table.w_cty + double_geometric_noise(g, eps, k)
        b_tot = table.b_cty + double_geometric_noise(g, eps, k)
        d.append(0.5 * np.abs(w / w_tot[:, None] - b / b_tot[:, None]).sum(axis=1))
    d = np.concatenate(d)
    assert study.undefined_fraction == 0.0
    assert study.mean == float(d.mean()) and study.sd == float(d.std(ddof=1))
    assert study.quantiles == {q: float(np.quantile(d, q)) for q in study.quantiles}
    # the whole-array study reads the caller's stream alone
    whole = whole_array_study(table, eps, 50, stream(128, "layout"))
    assert whole.mean != study.mean


def test_study_is_the_same_at_any_worker_count(monkeypatch):
    # 3000 tracts, 200 replicates: ten blocks, so eight workers run at once
    # on a host with fewer cores.  A block that read another's stream or
    # wrote another's rows would change the study.
    table, eps = wide_county(3000, 131), PrivacyBudget(0.5)
    drawn_by = []

    def traced(*args, **kwargs):
        drawn_by.append(threading.get_ident())
        return double_geometric_noise(*args, **kwargs)

    monkeypatch.setattr(metrics, "double_geometric_noise", traced)
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        studies = {}
        for workers in (1, 2, 8):
            monkeypatch.setattr(metrics, "_THREADS", workers)
            drawn_by.clear()
            runner = threading.Thread(target=lambda: studies.setdefault(
                workers, privatized_dissimilarity_study(table, eps, 200, stream(131, "workers"))),
                daemon=True)
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive() and workers in studies
            assert len(drawn_by) == 4 * 10 and 1 <= len(set(drawn_by)) <= workers
    finally:
        sys.setswitchinterval(interval)
    assert studies[1] == studies[2] == studies[8]
    assert studies[1].undefined_fraction == 0.0


def test_study_raises_what_a_block_raises(monkeypatch):
    # three blocks of four draws each; every draw after the fourth fails
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > 4:
            raise RuntimeError("draw failed")
        return double_geometric_noise(*args, **kwargs)

    monkeypatch.setattr(metrics, "double_geometric_noise", failing)
    with pytest.raises(RuntimeError, match="draw failed"):
        privatized_dissimilarity_study(wide_county(3000, 132), PrivacyBudget(0.5), 50,
                                       stream(132, "raises"))


def test_study_draws_its_cells_into_one_buffer_pair_per_worker(monkeypatch):
    # Ten blocks on two workers: every cell draw goes into one of four
    # buffers, allocated once.  The first block to draw holds its buffers
    # for a while, so a buffer lent again before its block is done would
    # change the study.
    table, eps = wide_county(3000, 133), PrivacyBudget(0.5)
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: 2)
    want = privatized_dissimilarity_study(table, eps, 200, stream(133, "buffers"))
    buffers = []

    def traced(*args, out=None, **kwargs):
        if out is not None:
            buffers.append(out.base)
        drawn = double_geometric_noise(*args, out=out, **kwargs)
        if len(buffers) == 1:
            time.sleep(0.2)
        return drawn

    monkeypatch.setattr(metrics, "double_geometric_noise", traced)
    assert privatized_dissimilarity_study(table, eps, 200, stream(133, "buffers")) == want
    assert len(buffers) == 2 * 10
    assert len({id(b) for b in buffers}) == 4


def traced_study(table, replicates, rng):
    """The study at eps 0.5 and the peak bytes that it allocated."""
    tracemalloc.start()
    try:
        study = privatized_dissimilarity_study(table, PrivacyBudget(0.5), replicates, rng)
        return study, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_memory_stays_bounded():
    # The whole-array 10 000 x 300 study peaked at about 69 MB.
    _, peak = traced_study(wide_county(300, 129), 10_000, stream(129, "memory"))
    assert peak < 8e6


def test_study_wider_than_a_block_runs_one_row_per_block():
    table = wide_county(70_000, 130)
    study, peak = traced_study(table, 3, stream(130, "wide"))
    assert study.replicates == 3 and study.undefined_fraction == 0.0
    assert abs(study.mean - dissimilarity(table)) < 1e-2
    assert peak < 8e6
