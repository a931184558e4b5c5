"""Trained proxy networks for the paper's fault-study workloads.

The paper injects faults into ResNet18 weights and measures ImageNet-class
accuracy through PyTorch.  Offline, this module supplies the equivalent
integration point: small MLPs trained on a synthetic task, registered under
the workload names the studies use.  What matters for the reproduction is
the *accuracy-versus-error-rate response*, which is a property of the fault
models and the storage encoding, not of the network's absolute size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dnn.data import Dataset, gaussian_clusters
from repro.dnn.network import MLP
from repro.errors import ReproError
from repro.faults.injection import accuracy_under_faults
from repro.faults.models import FaultModel

if TYPE_CHECKING:
    from repro.runtime.cache import DerivedCache


@dataclass(frozen=True)
class TrainedProxy:
    """A trained network plus its evaluation data and clean accuracy."""

    name: str
    network: MLP
    dataset: Dataset
    baseline_accuracy: float

    def evaluate_with_weights(self, weights: Sequence[np.ndarray]) -> float:
        """Task accuracy with the given (possibly corrupted) weights."""
        original = self.network.get_weights()
        try:
            self.network.set_weights(weights)
            return self.network.accuracy(self.dataset.x_test, self.dataset.y_test)
        finally:
            self.network.set_weights(original)

    def accuracy_under_model(
        self, model: FaultModel, trials: int = 5, seed: int = 0
    ) -> float:
        """Mean accuracy across fault-injection trials."""
        return accuracy_under_faults(
            self.evaluate_with_weights,
            self.network.get_weights(),
            model,
            trials=trials,
            seed=seed,
        )


#: Training hyper-parameters shared by every registered proxy.
EPOCHS = 30
LEARNING_RATE = 0.08
SEED = 3


def _train(
    name: str,
    hidden: tuple[int, ...],
    epochs: int = EPOCHS,
    learning_rate: float = LEARNING_RATE,
    seed: int = SEED,
) -> TrainedProxy:
    dataset = gaussian_clusters(seed=seed)
    sizes = (dataset.n_features, *hidden, dataset.n_classes)
    network = MLP(sizes, seed=seed)
    n = len(dataset.y_train)
    batch = 64
    rng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            network.train_step(dataset.x_train[idx], dataset.y_train[idx], learning_rate)
    accuracy = network.accuracy(dataset.x_test, dataset.y_test)
    if accuracy < 0.7:
        raise ReproError(f"proxy {name} failed to train (accuracy {accuracy:.2f})")
    return TrainedProxy(
        name=name, network=network, dataset=dataset, baseline_accuracy=accuracy
    )


def _restore(
    name: str,
    hidden: tuple[int, ...],
    layers: Sequence[tuple[np.ndarray, np.ndarray]],
    seed: int = SEED,
) -> TrainedProxy:
    """The proxy :func:`_train` yields, rebuilt from its stored layers."""
    dataset = gaussian_clusters(seed=seed)
    network = MLP((dataset.n_features, *hidden, dataset.n_classes), seed=seed)
    for layer, (weight, bias) in zip(network.dense_layers, layers, strict=True):
        layer.weight, layer.bias = weight, bias
    accuracy = network.accuracy(dataset.x_test, dataset.y_test)
    return TrainedProxy(
        name=name, network=network, dataset=dataset, baseline_accuracy=accuracy
    )


_PROXY_SHAPES: dict[str, tuple[int, ...]] = {
    "resnet18": (96, 96),
    "resnet26": (96, 96, 64),
    "albert": (128, 96),
}


@lru_cache(maxsize=8)
def trained_proxy(name: str, store: Optional[DerivedCache] = None) -> TrainedProxy:
    """The cached trained proxy for a workload name.

    Memoized in-process per ``store``; with a derived store
    (:func:`repro.runtime.cache.derived_cache`) the trained weights and
    biases also persist across runs, so a warm run rebuilds the network
    from them instead of retraining it.
    """
    try:
        hidden = _PROXY_SHAPES[name]
    except KeyError:
        raise ReproError(
            f"no proxy network registered for {name!r} "
            f"(known: {sorted(_PROXY_SHAPES)})"
        ) from None
    if store is None:
        return _train(name, hidden)
    key = store.key("proxy-layers", {
        "name": name,
        "shape": list(hidden),
        "epochs": EPOCHS,
        "learning_rate": LEARNING_RATE,
        "seed": SEED,
        "numpy": np.__version__,
    })
    layers = store.load(key)
    if layers is not None:
        return _restore(name, hidden, layers)
    proxy = _train(name, hidden)
    store.store(key, [(layer.weight, layer.bias) for layer in proxy.network.dense_layers])
    return proxy
