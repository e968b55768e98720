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

Fitted models are immutable; share them freely across runs. A fitted
KernelModel memoizes `predict` on the exact feature row it reads, so each
distinct (block MB, cpu, mem, io) row costs one kernel evaluation per
model; the memo is not part of the model's value (equality, repr), and
`dataclasses.replace` starts the new model with an empty one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cluster import NodeSpec
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


def _grid(block_mb: np.ndarray, hardware: np.ndarray) -> np.ndarray:
    """(len(hardware) * len(block_mb), 4) feature rows, node-major, from
    block sizes and per-node [cpu, mem, io] rows."""
    grid = np.empty((len(hardware), len(block_mb), 4))
    grid[:, :, 0] = block_mb
    grid[:, :, 1:] = hardware[:, None, :]
    return grid.reshape(-1, 4)


def _grid_factors(nodes: list[NodeSpec], tasks: list[TaskSpec]) -> tuple[np.ndarray, np.ndarray]:
    block_mb = np.array([t.block_mb for t in tasks], dtype=float)
    hardware = np.array([[n.cpu_ghz, n.mem_gb, n.io_mbps] for n in nodes], dtype=float)
    return block_mb, hardware.reshape(len(nodes), 3)


def feature_grid(nodes: list[NodeSpec], tasks: list[TaskSpec]) -> np.ndarray:
    """`features_for` of every (node, task) pair, node-major: row
    i * len(tasks) + j holds node i and task j."""
    return _grid(*_grid_factors(nodes, tasks))


def rbf_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-||a - b||^2 / (2 sigma^2)) for row-wise inputs; returns the
    (len(a), len(b)) Gram block."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    sq = (
        np.sum(a * a, axis=1)[:, None]
        - 2.0 * (a @ b.T)
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
    # feature row -> predict's result; callers ask for few distinct rows
    _memo: dict[tuple[float, float, float, float], float] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def _standardize(self, feats: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(feats) - self.scaler_mean) / self.scaler_std

    def predict_features(self, feats: np.ndarray) -> np.ndarray:
        """Predict seconds for one or more raw feature rows."""
        x = self._standardize(np.asarray(feats, dtype=float))
        if self.degenerate:
            pred = np.full(len(x), self.bias)
        else:
            gram = rbf_kernel(x, self.supports, self.sigma)
            pred = gram @ self.coeffs + self.bias
        return np.maximum(pred, PREDICTION_FLOOR_S)

    def predict(self, node: NodeSpec, task: TaskSpec) -> float:
        """`predict_features` of the one row `features_for(node, task)`,
        computed once per distinct row."""
        key = (task.block_mb, node.cpu_ghz, node.mem_gb, node.io_mbps)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = float(self.predict_features(features_for(node, task))[0])
        return hit

    def predict_matrix(self, nodes: list[NodeSpec], tasks: list[TaskSpec]) -> np.ndarray:
        """(len(nodes), len(tasks)) prediction matrix, bitwise equal to
        `predict_features(feature_grid(nodes, tasks))` but evaluating the
        kernel only on the grid's distinct rows (hardware tiers times block
        sizes), which are scattered back.

        A BLAS matrix-vector product sums rows in blocks of four and the
        trailing one to three rows in another order. So the distinct rows
        are padded to a multiple of four, and the grid's own trailing rows
        are evaluated again in the trailing position. (A whole-grid product
        large enough for several BLAS threads also sums the rows at each
        thread's chunk edge in another order, so it depended on the thread
        count; the distinct rows do not reproduce that.)"""
        block_mb, hardware = _grid_factors(nodes, tasks)
        n, b = len(nodes), len(tasks)
        u_hw, i_hw = np.unique(hardware, axis=0, return_inverse=True)
        u_mb, i_mb = np.unique(block_mb, return_inverse=True)
        k = len(u_hw) * len(u_mb)
        head = -(-k // 4) * 4
        tail = (n * b) % 4
        if head + tail >= n * b:
            return self.predict_features(_grid(block_mb, hardware)).reshape(n, b)
        rows = _grid(u_mb, u_hw)
        flat = np.arange(n * b - tail, n * b)
        trailing = np.column_stack([block_mb[flat % b], hardware[flat // b]])
        pred = self.predict_features(
            np.concatenate([rows, np.repeat(rows[:1], head - k, axis=0), trailing])
        )
        out = pred[:k].reshape(len(u_hw), len(u_mb))[
            i_hw.reshape(-1, 1), i_mb.reshape(1, -1)
        ].reshape(-1)
        out[n * b - tail:] = pred[head:]
        return out.reshape(n, b)


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

    def validate(self) -> None:
        # prediction must stay positive over demand in (0, 1]
        if self.intercept <= 0 or self.slope + self.intercept <= 0:
            raise ValueError("linear model must predict > 0 on (0, 1]")

    def predict(self, node: NodeSpec, task: TaskSpec) -> float:
        return max(self.slope * task.resource_demand + self.intercept, PREDICTION_FLOOR_S)

    def predict_matrix(self, nodes: list[NodeSpec], tasks: list[TaskSpec]) -> np.ndarray:
        row = np.array([self.predict(None, t) for t in tasks])
        return np.tile(row, (len(nodes), 1))


@dataclass(frozen=True)
class FeatureRegression:
    """Multiple linear regression over [m, cpu, mem, io] (plus intercept),
    solved in closed form. Used by the reservation-first-fit baseline."""

    theta: np.ndarray  # (5,) — intercept first

    def predict(self, node: NodeSpec, task: TaskSpec) -> float:
        x = features_for(node, task)
        return max(float(self.theta[0] + x @ self.theta[1:]), PREDICTION_FLOOR_S)

    def predict_matrix(self, nodes: list[NodeSpec], tasks: list[TaskSpec]) -> np.ndarray:
        feats = feature_grid(nodes, tasks)
        pred = self.theta[0] + feats @ self.theta[1:]
        return np.maximum(pred, PREDICTION_FLOOR_S).reshape(len(nodes), len(tasks))


def fit_feature_regression(records: list[ExecRecord]) -> FeatureRegression:
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit")
    feats = np.array([r.features for r in records], dtype=float)
    targets = np.array([r.observed_time_s for r in records], dtype=float)
    design = np.column_stack([np.ones(len(records)), feats])
    theta, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return FeatureRegression(theta=theta)


def save_model(model: KernelModel, path: str) -> None:
    payload = {
        "supports": model.supports.tolist(),
        "coeffs": model.coeffs.tolist(),
        "bias": model.bias,
        "sigma": model.sigma,
        "learning_rate": model.learning_rate,
        "scaler_mean": model.scaler_mean.tolist(),
        "scaler_std": model.scaler_std.tolist(),
        "degenerate": model.degenerate,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path: str) -> KernelModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return KernelModel(
        supports=np.array(payload["supports"], dtype=float).reshape(-1, 4),
        coeffs=np.array(payload["coeffs"], dtype=float),
        bias=float(payload["bias"]),
        sigma=float(payload["sigma"]),
        learning_rate=float(payload["learning_rate"]),
        scaler_mean=np.array(payload["scaler_mean"], dtype=float),
        scaler_std=np.array(payload["scaler_std"], dtype=float),
        degenerate=bool(payload["degenerate"]),
    )
