"""Reference scorers for the evaluation harness.

A scorer is any callable ``(rows, users) -> scores`` from the CSR slice of
the train matrix for the user indices ``users`` to their (len(users), n)
scores over the full item catalog; a user's scores depend only on its row
and the model state. A scorer may carry ``block``, the users it takes per
call (``ama_scorer``'s is its decode block). POP ranks by train popularity;
PureSVD projects each row onto the span of the item embeddings V, the top
right singular vectors of the train matrix that ``linalg.embed_items``
builds; ``ama_scorer`` scores with a trained model.
"""

from __future__ import annotations

import numpy as np

from amarec.dataset import _rows
from amarec.model import Forward


def pop_scorer(train):
    """Most-popular-items baseline: score[j] = train count of item j, all users."""
    if train.nnz == 0:
        raise ValueError("train matrix is empty")
    counts = np.asarray(train.sum(axis=0)).ravel().astype(np.float64)

    def score(rows, users):
        return np.broadcast_to(counts, (len(users), counts.size))   # read-only

    return score


def puresvd_scorer(V):
    """PureSVD's similarity scorer r . V V^T with the n x h item embeddings ``V``."""

    def score(rows, users):
        # one GEMV per user: a batch GEMM (rows @ V) @ V.T sums in another order
        return np.matmul(V, (rows @ V)[:, :, None])[:, :, 0]

    return score


def ama_scorer(params, V):
    """Score with a trained model's parameters and item embeddings ``V``, whose
    shapes give the model's sizes; the clean train row masks attention, and
    a user with an empty row scores zeros."""
    forward = Forward(params, V)

    def score(rows, users):
        full = np.flatnonzero(np.diff(rows.indptr))
        if 0 < full.size == rows.shape[0]:   # no empty row: the block as it is
            return forward(rows)[4]
        scores = np.zeros(rows.shape)
        if full.size:
            scores[full] = forward(_rows(rows, full))[4]
        return scores

    score.block = forward.block   # users per call: whole decode blocks
    return score
