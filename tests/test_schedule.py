"""The cost ledger and its fitted cost model."""

import math

from repro.runtime.schedule import CostLedger, CostModel

FEATURES = {"log2_capacity": 20.0, "node_nm": 22.0}


def fp_of(i: int) -> str:
    return f"{i:016x}"


class TestCostLedger:
    def test_observe_roundtrip(self, tmp_path):
        ledger = CostLedger(tmp_path / "costs")
        assert ledger.observe(fp_of(1), FEATURES, 1.5)
        entry = ledger.load(fp_of(1))
        assert entry == {
            "phase": "characterize",
            "features": FEATURES,
            "mean_s": 1.5,
            "samples": 1,
        }
        assert ledger.observed == 1

    def test_repeated_observations_fold_into_running_mean(self, tmp_path):
        ledger = CostLedger(tmp_path / "costs")
        ledger.observe(fp_of(1), FEATURES, 1.0)
        ledger.observe(fp_of(1), FEATURES, 3.0)
        entry = ledger.load(fp_of(1))
        assert entry["samples"] == 2
        assert math.isclose(entry["mean_s"], 2.0)

    def test_cache_hit_durations_are_never_recorded(self, tmp_path):
        # Cache hits report duration_s == 0; folding those zeros in would
        # teach the model that warm points are free.
        ledger = CostLedger(tmp_path / "costs")
        assert not ledger.observe(fp_of(1), FEATURES, 0.0)
        assert not ledger.observe(fp_of(2), FEATURES, -1.0)
        assert ledger.load(fp_of(1)) is None
        assert ledger.observed == 0

    def test_phases_are_kept_apart(self, tmp_path):
        ledger = CostLedger(tmp_path / "costs")
        ledger.observe(fp_of(1), FEATURES, 1.0, phase="characterize")
        ledger.observe(fp_of(2), FEATURES, 2.0, phase="evaluate")
        assert ledger.observations(phase="characterize") == [(FEATURES, 1.0)]
        assert ledger.observations(phase="evaluate") == [(FEATURES, 2.0)]

    def test_observe_invalidates_memoized_model(self, tmp_path):
        ledger = CostLedger(tmp_path / "costs")
        for i in range(6):
            ledger.observe(fp_of(i), {"a": float(i)}, math.exp(0.1 * i))
        before = ledger.model("characterize")
        ledger.observe(fp_of(99), {"a": 99.0}, 5.0)
        after = ledger.model("characterize")
        assert after.samples == before.samples + 1

    def test_costs_for_prefers_observed_means(self, tmp_path):
        ledger = CostLedger(tmp_path / "costs")
        for i in range(8):
            ledger.observe(fp_of(i), {"a": float(i)}, math.exp(0.2 * i))
        requests = {fp_of(3): {"a": 3.0}, fp_of(50): {"a": 5.0}}
        costs = ledger.costs_for("characterize", requests)
        assert math.isclose(costs[fp_of(3)], math.exp(0.6), rel_tol=1e-9)
        assert costs[fp_of(50)] > 0.0

    def test_costs_for_is_none_with_an_empty_ledger(self, tmp_path):
        ledger = CostLedger(tmp_path / "costs")
        assert ledger.costs_for("characterize", {fp_of(1): FEATURES}) is None


class TestCostModel:
    def test_no_observations_fits_an_empty_model(self):
        model = CostModel.fit([])
        assert model.is_empty
        assert CostModel.fit([(FEATURES, 0.0)]).is_empty

    def test_too_few_observations_fall_back_to_the_heuristic(self):
        observations = [(dict(FEATURES, access_bits=64.0), 1.0)]
        model = CostModel.fit(observations)
        assert model.source == "heuristic"
        assert model.predict(FEATURES) > 0.0

    def test_regression_recovers_a_log_linear_law(self):
        observations = [({"a": float(i)}, math.exp(0.5 + 0.2 * i)) for i in range(10)]
        model = CostModel.fit(observations)
        assert model.source == "regression"
        predicted = model.predict({"a": 4.0})
        assert math.isclose(predicted, math.exp(0.5 + 0.2 * 4), rel_tol=1e-2)

    def test_fit_is_deterministic_under_observation_order(self):
        observations = [({"a": float(i)}, math.exp(0.1 * i) + 0.01) for i in range(12)]
        assert CostModel.fit(observations) == CostModel.fit(list(reversed(observations)))

    def test_predictions_are_clamped_to_sane_bounds(self):
        observations = [({"a": float(i)}, math.exp(2.0 * i)) for i in range(10)]
        model = CostModel.fit(observations)
        assert model.predict({"a": 1e9}) <= 1e6
        assert model.predict({"a": -1e9}) >= 1e-6
