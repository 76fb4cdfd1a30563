"""Epoch loop: per-epoch corruption resampling, one adam step per batch.

Users are shuffled with an epoch-indexed RNG and their corrupted rows are
redrawn every epoch: a batch is the CSR block of its users' train rows, in
ascending user order, corrupted in one draw. Every step makes one
model.batch_gradients call for the whole batch, whose result does not
depend on the BLAS thread count. Item embeddings are fixed, never updated.
"""

from __future__ import annotations

import time

import numpy as np

from amarec.dataset import _rows
from amarec.model import (PARAM_NAMES, _check_embedding, _sizes, batch_gradients, corrupt,
                          init_params)


class AdamState:
    """Standard adam moments, one pair of buffers per parameter."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.t = 0
        self.m = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
        self.v = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}


def adam_step(params, grads, state, lr):
    """One adam update of the parameters and moments, in place. Each element
    goes through the textbook update's operations in its order, so the bytes
    match it; only the temporaries are reused."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for k in PARAM_NAMES:
        g, m, v, arr = grads[k], state.m[k], state.v[k], getattr(params, k)
        buf = np.multiply(g, 1 - b2)
        buf *= g
        v *= b2
        v += buf                                  # v = b2 * v + (1 - b2) * g * g
        m *= b1
        m += np.multiply(g, 1 - b1, out=buf)      # m = b1 * m + (1 - b1) * g
        np.divide(v, 1 - b2 ** state.t, out=buf)
        np.sqrt(buf, out=buf)
        buf += state.eps                          # sqrt(v_hat) + eps
        step = np.divide(m, 1 - b1 ** state.t)
        step *= lr
        step /= buf
        arr -= step                               # lr * m_hat / (sqrt(v_hat) + eps)
    return params


class NonFiniteObjective(ValueError):
    def __init__(self, epoch, batch, value):
        super().__init__(f"non-finite objective {value} at epoch {epoch}, batch {batch}")
        self.epoch, self.batch = epoch, batch


@np.errstate(over="ignore", invalid="ignore")   # NonFiniteObjective reports an overflow
def train(data, V, cfg, params=None, callback=None):
    """Train on data.train with fixed item embeddings V under the AmaConfig ``cfg``.

    Returns the AmaParameters and the log: one ``{"epoch", "objective",
    "seconds"}`` dict per epoch. Users whose corrupted row is empty
    are skipped for that epoch. ``callback(epoch, params)`` runs after each
    epoch when given (the CLI saves checkpoints through it). ``params`` is
    updated in place; it or V not sized for ``cfg`` and n raises before epoch 0.
    V is narrowed to the parameters' dtype. An overflow stops the run with
    NonFiniteObjective, naming its epoch and batch, not with numpy's warning.
    """
    train_mat = data.train
    m, n = train_mat.shape
    if params is None:
        params = init_params(n, cfg)
    if _sizes(params, cfg)[0] != n:
        raise ValueError(f"the parameters score {params.S.shape[0]} items, "
                         f"but the catalog has {n}")
    _check_embedding(params, V)
    V, state = np.asarray(V, params.S.dtype), AdamState(params)

    log = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(m)
        total, counted = 0.0, 0
        for b, start in enumerate(range(0, m, cfg.batch_size)):
            clean = _rows(train_mat, np.sort(order[start:start + cfg.batch_size]))
            masks = corrupt(clean, cfg.rho, rng)
            used = np.flatnonzero(np.diff(masks.indptr))
            if not used.size:
                continue
            if used.size < masks.shape[0]:   # drop the rows corruption emptied
                clean, masks = _rows(clean, used), _rows(masks, used)
            grads, losses = batch_gradients(clean, masks, params, V, cfg.alpha)
            for value in losses.tolist():   # one by one in ascending user order, not pairwise
                total += value
            counted += used.size
            if not np.isfinite(total):   # earlier batches were finite: this one is not
                raise NonFiniteObjective(epoch, b, total)
            grads["S"] += 2.0 * cfg.lam * params.S   # regularizer once per step
            params = adam_step(params, grads, state, cfg.learning_rate)
        objective = (total / counted if counted else 0.0) + cfg.lam * float(
            np.sum(params.S * params.S)
        )
        if not np.isfinite(objective):   # the last update overflowed S
            raise NonFiniteObjective(epoch, b, objective)
        log.append({"epoch": epoch, "objective": objective,
                    "seconds": time.perf_counter() - t0})
        if callback is not None:
            callback(epoch, params)
    return params, log
