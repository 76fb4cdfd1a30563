"""Reference scorers for the evaluation harness.

A scorer is any callable ``(train_row_indices, user_index) -> scores`` over
the full item catalog, deterministic for fixed model state. POP ranks by
train popularity; PureSVD projects the user row onto the top singular
subspace of the train matrix. ``ama_scorer`` adapts a trained model to the
same contract.
"""

from __future__ import annotations

import numpy as np

from amarec.linalg import randomized_svd
from amarec.model import Segments, attend, decode_maxout, encode, keys_values


def pop_scorer(train):
    """Most-popular-items baseline: score[j] = train count of item j, all users."""
    if train.nnz == 0:
        raise ValueError("train matrix is empty")
    counts = np.asarray(train.sum(axis=0)).ravel().astype(np.float64)

    def score(train_row, user_index):
        return counts

    return score


def puresvd_scorer(train, rank=50, iters=10, seed=0):
    """Similarity scorer r . V V^T with V from randomized SVD of train."""
    V = randomized_svd(train, rank=rank, power_iters=iters, seed=seed).right

    def score(train_row, user_index):
        if len(train_row) == 0:
            return np.zeros(train.shape[1])
        return V @ V[train_row].sum(axis=0)

    return score


def ama_scorer(params, V, cfg):
    """Score with a trained model; the clean train row masks attention."""
    K, Vt = keys_values(V, params)
    S_T = np.ascontiguousarray(params.S.T)

    def score(train_row, user_index):
        obs = np.asarray(train_row, dtype=np.intp)
        if obs.size == 0:
            return np.zeros(params.S.shape[0])
        segs = Segments.of([obs])
        A = attend(K[obs], params.Q, segs, cfg.kappa)
        return decode_maxout(encode(A, Vt[obs], segs, params.B), S_T).scores[0]

    return score
