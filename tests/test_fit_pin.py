"""Bit pins on the predictor fits the pipeline runs: the synthetic history
`experiment._history` draws for a 50-node synthetic cluster at seed 1, the
`KernelModel` that `fit_kernel(..., epochs=300)` fits on it (coefficients,
bias, loss history, supports) and the `FeatureRegression`'s theta. A change
to the fits or the history that is meant to keep its outputs must keep these
digests."""

import hashlib

import numpy as np
import pytest

from sccdso import experiment, predictor as pred
from sccdso.cluster import build_cluster, synthetic_cluster_config

# the fits' last bits depend on the host's BLAS products, LAPACK solve and
# np.exp; the model digests below hold where this probe of those primitives,
# at the fit's sizes, gives the same bits
LINALG_PROBE = "9c60e690da1fb345"


def linalg_probe() -> str:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((240, 240))
    v = rng.standard_normal(240)
    x = rng.standard_normal((240, 4))
    design = np.column_stack([np.ones(240), rng.uniform(1.0, 64.0, (240, 4))])
    bits = (
        (a @ v).tobytes()
        + (a.T @ v).tobytes()
        + np.einsum("ik,jk->ij", x, x).tobytes()
        + np.exp(np.linspace(-40.0, 0.0, 4099)).tobytes()
        + np.linalg.lstsq(design, v, rcond=None)[0].tobytes()
    )
    return hashlib.sha256(bits).hexdigest()[:16]


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def history():
    return experiment._history(build_cluster(synthetic_cluster_config(50)), 1)


def test_history_is_pinned(history):
    # seeded draws and scalar arithmetic, no BLAS or LAPACK, so no probe
    assert len(history) == experiment.HISTORY_RECORDS
    assert sha([r.features for r in history], [r.observed_time_s for r in history]) == (
        "c574d8f7d01791f3"
    )


def test_fits_are_pinned(history):
    if linalg_probe() != LINALG_PROBE:
        pytest.skip("BLAS, LAPACK or np.exp rounds differently on this host")
    model = pred.fit_kernel(history, epochs=300)
    assert len(model.loss_history) == 301
    assert sha(model.coeffs, [model.bias], model.loss_history, model.supports) == (
        "e2d94a1b2f7ada24"
    )
    assert sha(pred.fit_feature_regression(history).theta) == "94837de1e473bc22"
