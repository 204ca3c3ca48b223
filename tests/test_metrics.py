import json
import math
import re

import numpy as np
import pytest

from transparent_dp.errors import UndefinedIndexError
from transparent_dp.mechanisms import PrivacyBudget
from transparent_dp.metrics import (
    CountyTable,
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


def test_study_json_summary():
    study = privatized_dissimilarity_study(
        small_county(), PrivacyBudget(0.5), 100, stream(126, "study-json")
    )
    obj = json.loads(study.to_json())
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
