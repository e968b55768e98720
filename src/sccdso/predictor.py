"""Execution-time predictors.

Two models share one job: estimate how long a map task runs on a node.

* KernelModel — Gaussian-RBF kernel regression over the feature vector
  [block MB, cpu GHz, mem GB, io MB/s], coefficients trained by full-batch
  gradient descent on squared error. Features are standardized before
  kernel evaluation; raw MB/GHz/GB scales would make a unit-bandwidth RBF
  degenerate. The support set is capped (reservoir sampling) so a single
  prediction touches at most `s_max` stored points.

* LinearModel — the lightweight alternative: an affine map of the task's
  normalized resource demand, ignoring node features entirely.

Fitted models are immutable; share them freely across runs.

A prediction has one definition: `predict_matrix(nodes, tasks)`, the
(nodes x tasks) table of predicted seconds. `predict(node, task)` is its
one cell. The colony, the baselines, the placement and the simulator read
it through `predict_table`, the table over a cluster's sorted nodes. A
feature-based model evaluates only the grid's distinct rows
(hardware tiers times block sizes) and scatters them back, so each row's
prediction must not depend on the rows batched with it. Its products
therefore use `np.einsum`, which sums each output in its own fixed
order, not `@`: a BLAS product sums a row in another order depending on
its position in the batch and on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterGraph, NodeSpec
from .workload import TaskSpec

PREDICTION_FLOOR_S = 1e-3


@dataclass(frozen=True)
class ExecRecord:
    """One historical observation: features [m, cpu, mem, io] and the
    measured wall time."""

    features: tuple[float, float, float, float]
    observed_time_s: float

    def validate(self) -> None:
        if any((not np.isfinite(f)) or f < 0 for f in self.features):
            raise ValueError("features must be finite and non-negative")
        if self.observed_time_s <= 0:
            raise ValueError("observed_time_s must be > 0")


def features_for(node: NodeSpec, task: TaskSpec) -> np.ndarray:
    return np.array([task.block_mb, node.cpu_ghz, node.mem_gb, node.io_mbps])


def predict_table(g: ClusterGraph, tasks, model) -> np.ndarray:
    """`model`'s (n, B) table of execution seconds as a float array, rows
    the nodes of `g` in sorted-id order (the path table's), columns
    `tasks` in order. Raises ValueError naming the first (node, task), in
    that order, whose prediction is not finite and > 0: a NaN or
    non-positive time would otherwise price plans at NaN, which compares
    false everywhere, so a plan of makespan NaN passes as feasible."""
    nodes = [g.node(nid) for nid in g.node_ids()]
    tasks = list(tasks)
    table = np.asarray(model.predict_matrix(nodes, tasks), dtype=float)
    # min and max propagate NaN, so two reductions check every cell
    if table.size and not (table.min() > 0.0 and table.max() < np.inf):
        i, j = np.argwhere(~((table > 0.0) & (table < np.inf)))[0]
        raise ValueError(
            f"predictor returned {table[i, j]!r} s for node {nodes[i].id}, "
            f"task {tasks[j].id}; predictions must be finite and > 0"
        )
    return table


def _distinct_rows_table(
    predict_features, nodes: list[NodeSpec], tasks: list[TaskSpec]
) -> np.ndarray:
    """(len(nodes), len(tasks)) table of `predict_features` over the
    feature row of every (node, task) pair, evaluated once per distinct
    row (hardware tier times block size) and scattered back."""
    hardware: dict[tuple[float, float, float], int] = {}
    i_hw = [hardware.setdefault((n.cpu_ghz, n.mem_gb, n.io_mbps), len(hardware)) for n in nodes]
    block_mb: dict[float, int] = {}
    i_mb = [block_mb.setdefault(t.block_mb, len(block_mb)) for t in tasks]
    rows = np.empty((len(hardware), len(block_mb), 4))
    rows[:, :, 0] = list(block_mb)
    rows[:, :, 1:] = np.array(list(hardware), dtype=float).reshape(len(hardware), 1, 3)
    pred = predict_features(rows.reshape(-1, 4)).reshape(len(hardware), len(block_mb))
    return pred[np.ix_(i_hw, i_mb)]


def rbf_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-||a - b||^2 / (2 sigma^2)) for row-wise inputs; returns the
    (len(a), len(b)) Gram block, each row a function of its row of `a`."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    sq = (
        np.sum(a * a, axis=1)[:, None]
        - 2.0 * np.einsum("ik,jk->ij", a, b)
        + np.sum(b * b, axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * sigma * sigma))


def loss_and_gradient(
    coeffs: np.ndarray, bias: float, gram: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Mean squared error of gram @ coeffs + bias against targets, with its
    analytic gradient. Kept as a pure function so it can be checked against
    finite differences."""
    pred = gram @ coeffs + bias
    err = pred - targets
    n = len(targets)
    loss = float(np.mean(err * err))
    grad_w = (2.0 / n) * (gram.T @ err)
    grad_b = float((2.0 / n) * np.sum(err))
    return loss, grad_w, grad_b


@dataclass(frozen=True)
class KernelModel:
    supports: np.ndarray  # (S, 4) standardized support features
    coeffs: np.ndarray  # (S,)
    bias: float
    sigma: float
    learning_rate: float
    scaler_mean: np.ndarray  # (4,)
    scaler_std: np.ndarray  # (4,)
    degenerate: bool = False
    loss_history: tuple[float, ...] = ()

    def _standardize(self, feats: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(feats) - self.scaler_mean) / self.scaler_std

    def predict_features(self, feats: np.ndarray) -> np.ndarray:
        """Predict seconds for one or more raw feature rows."""
        x = self._standardize(np.asarray(feats, dtype=float))
        if self.degenerate:
            pred = np.full(len(x), self.bias)
        else:
            gram = rbf_kernel(x, self.supports, self.sigma)
            pred = np.einsum("ij,j->i", gram, self.coeffs) + self.bias
        return np.maximum(pred, PREDICTION_FLOOR_S)

    def predict(self, node: NodeSpec, task: TaskSpec) -> float:
        return float(self.predict_matrix([node], [task])[0, 0])

    def predict_matrix(self, nodes: list[NodeSpec], tasks: list[TaskSpec]) -> np.ndarray:
        return _distinct_rows_table(self.predict_features, nodes, tasks)


def fit_kernel(
    records: list[ExecRecord],
    sigma: float = 1.0,
    learning_rate: float = 0.05,
    epochs: int = 400,
    s_max: int = 512,
    seed: int = 0,
) -> KernelModel:
    """Train a KernelModel by gradient descent on mean squared error.

    Records beyond `s_max` are thinned by reservoir sampling so prediction
    cost stays bounded. Degenerate inputs (all-identical features) collapse
    to a bias-only model flagged `degenerate`.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if not 0.01 <= learning_rate <= 0.1:
        raise ValueError("learning_rate must be in [0.01, 0.1]")
    for r in records:
        r.validate()

    if len(records) > s_max:
        rng = np.random.default_rng(seed)
        keep = list(range(s_max))
        for i in range(s_max, len(records)):
            j = int(rng.integers(0, i + 1))
            if j < s_max:
                keep[j] = i
        records = [records[i] for i in sorted(keep)]

    feats = np.array([r.features for r in records], dtype=float)
    targets = np.array([r.observed_time_s for r in records], dtype=float)

    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0.0] = 1.0

    if np.allclose(feats, feats[0]):
        return KernelModel(
            supports=np.zeros((0, 4)),
            coeffs=np.zeros(0),
            bias=float(targets.mean()),
            sigma=sigma,
            learning_rate=learning_rate,
            scaler_mean=mean,
            scaler_std=std,
            degenerate=True,
        )

    x = (feats - mean) / std
    gram = rbf_kernel(x, x, sigma)
    coeffs = np.zeros(len(records))
    bias = float(targets.mean())
    history = []
    for _ in range(epochs):
        loss, grad_w, grad_b = loss_and_gradient(coeffs, bias, gram, targets)
        history.append(loss)
        coeffs = coeffs - learning_rate * grad_w
        bias = bias - learning_rate * grad_b
    history.append(loss_and_gradient(coeffs, bias, gram, targets)[0])

    return KernelModel(
        supports=x,
        coeffs=coeffs,
        bias=bias,
        sigma=sigma,
        learning_rate=learning_rate,
        scaler_mean=mean,
        scaler_std=std,
        loss_history=tuple(history),
    )


@dataclass(frozen=True)
class LinearModel:
    """T = slope * demand + intercept; node-agnostic by design."""

    slope: float = 0.5
    intercept: float = 0.1

    def predict(self, node: NodeSpec, task: TaskSpec) -> float:
        return float(self.predict_matrix([node], [task])[0, 0])

    def predict_matrix(self, nodes: list[NodeSpec], tasks: list[TaskSpec]) -> np.ndarray:
        demand = np.array([t.resource_demand for t in tasks], dtype=float)
        row = np.maximum(self.slope * demand + self.intercept, PREDICTION_FLOOR_S)
        return np.tile(row, (len(nodes), 1))


@dataclass(frozen=True)
class FeatureRegression:
    """Multiple linear regression over [m, cpu, mem, io] (plus intercept),
    solved in closed form. Used by the reservation-first-fit baseline."""

    theta: np.ndarray  # (5,) — intercept first

    def predict_features(self, feats: np.ndarray) -> np.ndarray:
        """Predict seconds for one or more raw feature rows."""
        pred = self.theta[0] + np.einsum("ij,j->i", np.atleast_2d(feats), self.theta[1:])
        return np.maximum(pred, PREDICTION_FLOOR_S)

    def predict(self, node: NodeSpec, task: TaskSpec) -> float:
        return float(self.predict_matrix([node], [task])[0, 0])

    def predict_matrix(self, nodes: list[NodeSpec], tasks: list[TaskSpec]) -> np.ndarray:
        return _distinct_rows_table(self.predict_features, nodes, tasks)


def fit_feature_regression(records: list[ExecRecord]) -> FeatureRegression:
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit")
    feats = np.array([r.features for r in records], dtype=float)
    targets = np.array([r.observed_time_s for r in records], dtype=float)
    design = np.column_stack([np.ones(len(records)), feats])
    theta, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return FeatureRegression(theta=theta)
