"""Per-point cost observations and a fitted cost model.

* :class:`CostLedger` — a persistent store of observed per-point
  wall-clock, keyed by the result caches' content fingerprints.  Only
  fresh work is recorded (cache hits carry ``duration_s = 0`` and are
  never folded in); repeated observations fold into a running mean.
* :class:`CostModel` — a cheap, deterministic regression over array
  geometry (log2 capacity, node, access width, bits/cell, volatility)
  fitted from the ledger in log-duration space.  With too few
  observations it degrades to a static geometry heuristic; with none at
  all it is *empty*.

Nothing in ``repro`` constructs a ledger: study-level and round-robin
point sharding need no cost estimates, and per-point payloads are too
short for cost-aware scheduling to pay for itself.  The classes stay
importable because ``suitebench/spans.py`` traces their methods by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runtime.cache import JsonObjectCache

if TYPE_CHECKING:
    from repro.runtime.chaos import ChaosOptions

__all__ = [
    "COST_SCHEMA_TAG",
    "CostLedger",
    "CostModel",
]

#: Schema tag of the persisted cost-ledger entries.  Bumping it orphans
#: old observations (they become ordinary misses) without invalidating
#: any result cache — costs are advisory, never part of result identity.
COST_SCHEMA_TAG = "cost-ledger-v1"

#: Predictions are clamped into this range: a cost is always positive,
#: and a wild extrapolation must not let one mispredicted point dominate.
_MIN_COST_S = 1e-6
_MAX_COST_S = 1e6


def _heuristic_cost(features: Mapping[str, float]) -> float:
    """Static fallback when the ledger holds too few observations.

    Any positive function monotone in the work drivers ranks requests
    correctly — bigger arrays and denser cells dominate characterization
    time, and longer traffic blocks dominate evaluation time.
    """
    cost = 1.0 + features.get("log2_capacity", 0.0)
    cost *= 1.0 + 0.5 * max(0.0, features.get("bits_per_cell", 1.0) - 1.0)
    cost *= 1.0 + 0.01 * features.get("traffic_length", 0.0)
    return cost


# --- the cost model ---------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """A fitted per-point cost predictor.

    ``source`` records how the model was obtained: ``"regression"`` (a
    ridge least-squares fit in log-duration space), ``"heuristic"``
    (too few observations — predictions fall back to the static
    geometry heuristic), or ``"empty"`` (no observations at all).  The
    fit is a closed-form solve over deterministically ordered
    observations — no RNG anywhere — so every host fits the same model
    from the same ledger; ``seed`` is recorded for provenance.
    """

    feature_names: Tuple[str, ...] = ()
    weights: Tuple[float, ...] = ()  # intercept first, log-duration space
    source: str = "empty"
    samples: int = 0
    seed: int = 0

    @property
    def is_empty(self) -> bool:
        return self.source == "empty"

    @classmethod
    def fit(
        cls,
        observations: Sequence[Tuple[Mapping[str, float], float]],
        seed: int = 0,
    ) -> "CostModel":
        """Fit from ``(features, duration_s)`` pairs, deterministically.

        Observations are sorted into a canonical order before the solve,
        so the model depends only on the ledger *contents*.
        """
        rows = [
            (tuple(sorted(features.items())), float(duration))
            for features, duration in observations
            if duration > 0.0
        ]
        rows.sort()
        if not rows:
            return cls(source="empty", seed=seed)
        names = tuple(sorted({name for features, _ in rows for name, _ in features}))
        if len(rows) < len(names) + 2:
            return cls(feature_names=names, source="heuristic", samples=len(rows), seed=seed)
        import numpy as np

        x = np.ones((len(rows), len(names) + 1), dtype=np.float64)
        y = np.empty(len(rows), dtype=np.float64)
        for i, (features, duration) in enumerate(rows):
            lookup = dict(features)
            for j, name in enumerate(names):
                x[i, j + 1] = lookup.get(name, 0.0)
            y[i] = math.log(max(duration, _MIN_COST_S))
        # Ridge-regularized normal equations: closed-form, deterministic,
        # and well-posed even when a feature is constant across the ledger.
        gram = x.T @ x + 1e-6 * np.eye(x.shape[1])
        weights = np.linalg.solve(gram, x.T @ y)
        return cls(
            feature_names=names,
            weights=tuple(float(w) for w in weights),
            source="regression",
            samples=len(rows),
            seed=seed,
        )

    def predict(self, features: Mapping[str, float]) -> float:
        """Predicted cost (seconds) of one request; always positive."""
        if self.source != "regression" or not self.weights:
            return max(_MIN_COST_S, _heuristic_cost(features))
        log_cost = self.weights[0]
        for name, weight in zip(self.feature_names, self.weights[1:]):
            log_cost += weight * features.get(name, 0.0)
        # Clamp in log space: math.exp overflows long before the cost
        # ceiling would get a chance to.
        log_cost = min(math.log(_MAX_COST_S), max(math.log(_MIN_COST_S), log_cost))
        return math.exp(log_cost)


# --- the cost ledger --------------------------------------------------------


class CostLedger(JsonObjectCache):
    """Persistent per-point cost observations under one root directory.

    Entries are keyed by the same content fingerprints as the result
    caches (point fingerprints for the characterize phase, evaluation
    fingerprints for the evaluate phase), so an observation survives
    exactly as long as the result it describes stays addressable.
    Repeated observations of one fingerprint fold into a running mean.

    Only *fresh* work is recorded: :meth:`observe` ignores non-positive
    durations, which is precisely what cache hits report — a warm run
    leaves the ledger untouched, keeping hit/miss accounting and cost
    accounting distinct.  Entries ride the shared
    :class:`~repro.runtime.cache.JsonObjectCache` machinery (atomic
    writes, checksums, quarantine).
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str = COST_SCHEMA_TAG,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        super().__init__(root, schema_tag, chaos=chaos)
        self._models: Dict[str, CostModel] = {}
        #: Observations recorded by this process (fresh work this run).
        self.observed = 0

    def _encode(self, result) -> Any:
        return dict(result)

    def _decode(self, payload):
        if not isinstance(payload, dict):
            raise ValueError("cost payload must be an object")
        features = payload.get("features")
        if not isinstance(features, dict):
            raise ValueError("cost payload must carry a features object")
        return {
            "phase": str(payload.get("phase", "characterize")),
            "features": {str(k): float(v) for k, v in features.items()},
            "mean_s": float(payload["mean_s"]),
            "samples": int(payload.get("samples", 1)),
        }

    def observe(
        self,
        fingerprint: str,
        features: Mapping[str, float],
        duration_s: float,
        phase: str = "characterize",
    ) -> bool:
        """Fold one fresh-work duration into the ledger.

        Returns ``False`` (recording nothing) for non-positive durations:
        a ``duration_s`` of zero means the point was served from cache,
        and zeros averaged into the ledger would teach the model that
        warm points are free — exactly the bias this guard exists for.
        """
        if duration_s <= 0.0:
            return False
        prior = self.load(fingerprint)
        samples, mean_s = 1, float(duration_s)
        if prior is not None and prior.get("phase") == phase:
            samples = int(prior["samples"]) + 1
            mean_s = prior["mean_s"] + (duration_s - prior["mean_s"]) / samples
        self.store(
            fingerprint,
            {
                "phase": phase,
                "features": {str(k): float(v) for k, v in features.items()},
                "mean_s": mean_s,
                "samples": samples,
            },
        )
        self.observed += 1
        self._models.pop(phase, None)
        return True

    def observations(
        self, phase: str = "characterize", limit: int = 4096
    ) -> List[Tuple[Dict[str, float], float]]:
        """Up to ``limit`` ``(features, mean duration)`` pairs, in
        deterministic (fingerprint-sorted) order."""
        out: List[Tuple[Dict[str, float], float]] = []
        for fingerprint in self.fingerprints():
            if len(out) >= limit:
                break
            entry = self.load(fingerprint)
            if entry is not None and entry.get("phase") == phase:
                out.append((dict(entry["features"]), float(entry["mean_s"])))
        return out

    def costs_for(
        self, phase: str, requests: Mapping[str, Mapping[str, float]]
    ) -> Optional[Dict[str, float]]:
        """Predicted cost per fingerprint, or ``None`` with an empty model.

        Known fingerprints are priced at their *observed* mean (the best
        possible estimate); unknown ones at the model's prediction.
        """
        model = self.model(phase)
        if model.is_empty:
            return None
        costs: Dict[str, float] = {}
        for fingerprint, features in requests.items():
            entry = self.load(fingerprint)
            if entry is not None and entry.get("phase") == phase:
                costs[fingerprint] = max(_MIN_COST_S, float(entry["mean_s"]))
            else:
                costs[fingerprint] = model.predict(features)
        return costs

    def model(self, phase: str = "characterize") -> CostModel:
        """The fitted (and memoized) cost model for one phase."""
        if phase not in self._models:
            self._models[phase] = CostModel.fit(self.observations(phase=phase))
        return self._models[phase]
