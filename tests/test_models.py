import itertools
from collections import Counter

import numpy as np
import pytest

from mewvote import (
    MallowsModel,
    RimModel,
    RsmRankingModel,
    ValidationError,
    kendall_tau,
    mallows_probability,
    mallows_to_rim,
    mallows_to_rsm,
    rim_probability,
    rsm_probability,
    sample,
)


def test_rim_row_validation():
    with pytest.raises(ValidationError):
        RimModel((0, 1), [[1.0], [0.6, 0.6]])
    with pytest.raises(ValidationError):
        RimModel((0, 1), [[1.0], [0.5]])


def test_rim_probability_example():
    # generating <c,a,b> from reference <a,b,c> uses rows (1,1), (2,2), (3,1)
    pi = [[1.0], [0.25, 0.75], [0.4, 0.35, 0.25]]
    model = RimModel((0, 1, 2), pi)
    assert rim_probability((2, 0, 1), model) == pytest.approx(1.0 * 0.75 * 0.4, abs=1e-15)


def test_rim_probability_identity():
    pi = [[1.0], [0.25, 0.75], [0.4, 0.35, 0.25]]
    model = RimModel((0, 1, 2), pi)
    assert rim_probability((0, 1, 2), model) == pytest.approx(0.75 * 0.25, abs=1e-15)


def test_rim_probabilities_normalize():
    rng = np.random.default_rng(0)
    rows = []
    for i in range(1, 5):
        w = rng.uniform(0.1, 1.0, size=i)
        rows.append(list(w / w.sum()))
    model = RimModel((0, 1, 2, 3), rows)
    total = sum(rim_probability(r, model) for r in itertools.permutations(range(4)))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_rsm_probability_example():
    # generating <c,a,b> from reference <a,b,c> selects indices 3, 1, 1
    pi = [[0.2, 0.3, 0.5], [0.6, 0.4], [1.0]]
    model = RsmRankingModel((0, 1, 2), pi)
    assert rsm_probability((2, 0, 1), model) == pytest.approx(0.5 * 0.6 * 1.0, abs=1e-15)
    assert rsm_probability((0, 1, 2), model) == pytest.approx(0.2 * 0.6, abs=1e-15)


def test_rsm_probabilities_normalize():
    rng = np.random.default_rng(1)
    rows = []
    for i in range(4):
        w = rng.uniform(0.1, 1.0, size=4 - i)
        rows.append(list(w / w.sum()))
    model = RsmRankingModel((0, 1, 2, 3), rows)
    total = sum(rsm_probability(r, model) for r in itertools.permutations(range(4)))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mallows_phi_one_gives_uniform_rows():
    rim = mallows_to_rim(MallowsModel((0, 1, 2, 3), 1.0))
    for i, row in enumerate(rim.pi, start=1):
        assert row == tuple([1.0 / i] * i)


def test_mallows_rim_row_closed_form():
    rim = mallows_to_rim(MallowsModel((0, 1), 0.5))
    assert rim.pi[1] == pytest.approx((1 / 3, 2 / 3), abs=1e-15)


def test_mallows_probability_matches_distance_form():
    model = MallowsModel((0, 1, 2, 3), 0.7)
    z = sum(0.7 ** kendall_tau(model.sigma, r) for r in itertools.permutations(range(4)))
    for r in itertools.permutations(range(4)):
        expected = 0.7 ** kendall_tau(model.sigma, r) / z
        assert mallows_probability(r, model) == pytest.approx(expected, abs=1e-12)


def test_phi_zero_rejected():
    with pytest.raises(ValidationError):
        MallowsModel((0, 1), 0.0)


def test_kendall_tau_basic():
    assert kendall_tau((0, 1, 2), (0, 1, 2)) == 0
    assert kendall_tau((0, 1, 2), (2, 1, 0)) == 3
    assert kendall_tau((0, 1, 2), (1, 0, 2)) == 1


def test_rim_and_rsm_conversions_agree():
    for m in (2, 3, 4, 5):
        model = MallowsModel(tuple(range(m)), 0.6)
        rim = mallows_to_rim(model)
        rsm = mallows_to_rsm(model)
        for r in itertools.permutations(range(m)):
            assert rim_probability(r, rim) == pytest.approx(
                rsm_probability(r, rsm), abs=1e-12)


def test_rim_probability_proportional_to_distance():
    model = MallowsModel((3, 1, 0, 2), 0.45)
    rim = mallows_to_rim(model)
    ratios = {
        rim_probability(r, rim) / (0.45 ** kendall_tau(model.sigma, r))
        for r in itertools.permutations(range(4))
    }
    assert max(ratios) - min(ratios) < 1e-9


def test_sampling_is_deterministic():
    model = MallowsModel((0, 1, 2, 3), 0.4)
    assert sample(model, 123) == sample(model, 123)
    rsm = mallows_to_rsm(model)
    assert sample(rsm, 5) == sample(rsm, 5)


def test_sampling_uniform_frequencies():
    model = MallowsModel((0, 1, 2), 1.0)
    rng = np.random.default_rng(42)
    counts = Counter(sample(model, rng) for _ in range(100_000))
    for r in itertools.permutations(range(3)):
        assert abs(counts[r] / 100_000 - 1 / 6) < 0.01


def test_sampling_matches_closed_form():
    model = MallowsModel((0, 1, 2, 3), 0.3)
    rim = mallows_to_rim(model)
    rng = np.random.default_rng(7)
    n = 100_000
    counts = Counter(sample(rim, rng) for _ in range(n))
    assert abs(counts[model.sigma] / n - rim_probability(model.sigma, rim)) < 0.01
    # spot-check a distant ranking as well
    far = tuple(reversed(model.sigma))
    assert abs(counts[far] / n - rim_probability(far, rim)) < 0.01


def test_rsm_sampling_matches_probability():
    model = mallows_to_rsm(MallowsModel((0, 1, 2), 0.5))
    rng = np.random.default_rng(11)
    n = 50_000
    counts = Counter(sample(model, rng) for _ in range(n))
    for r in itertools.permutations(range(3)):
        assert abs(counts[r] / n - rsm_probability(r, model)) < 0.01


@pytest.mark.parametrize("cls", [RimModel, RsmRankingModel])
@pytest.mark.parametrize("rows", [2, 4])
def test_step_models_need_one_row_per_item(cls, rows):
    lengths = [1, 2, 3, 4] if cls is RimModel else [3, 2, 1, 1]  # valid lengths, then one more
    pi = [[1.0 / n] * n for n in lengths[:rows]]
    with pytest.raises(ValidationError, match=f"expected 3 rows, one per item, got {rows}"):
        cls((0, 1, 2), pi)
    cls((0, 1, 2), pi, check=False)  # unchecked rows are taken as given


@pytest.mark.parametrize("call,error,message", [
    (lambda: RimModel((0, 1), [[1.0], [1.5, -0.5]]), ValidationError,
     r"row 2 has entries outside \[0, 1\]"),
    (lambda: kendall_tau((0, 1), (0, 2)), ValidationError,
     "rankings are over different candidate sets"),
    (lambda: sample(object(), 0), TypeError, "cannot sample from object"),
])
def test_model_inputs_are_rejected_with_their_class(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error
