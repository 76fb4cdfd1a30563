"""Randomized truncated SVD and fixed item embeddings.

The item embeddings, which AMA and PureSVD share, are the right factor of a
rank-h randomized SVD of the (train) interaction matrix: Gaussian range
finding, power iterations that each apply R R^T whole and end in one QR of
the m x k range iterate, and a sign convention so embeddings reproduce.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from amarec.fileio import atomic_open


@dataclass(frozen=True)
class SvdResult:
    left: np.ndarray           # m x h
    singular_values: np.ndarray  # length h, nonincreasing
    right: np.ndarray          # n x h


def randomized_svd(R, rank, power_iters=10, seed=0):
    """Rank-``rank`` randomized SVD of a (sparse or dense) m x n matrix.

    Deterministic for a fixed seed. The range finder draws 10 oversampling
    columns beyond ``rank`` and spans ``(R R^T)^power_iters R Omega``
    (Halko, Martinsson & Tropp 2011). Each power iteration applies ``R R^T``
    whole and re-orthonormalizes once, by a QR of the m x k iterate. Since
    the QR comes after the squared operator, a direction whose singular
    value is below about 1e-8 of the largest (sqrt of machine epsilon) is
    not resolved; a QR after each half-step would keep it.
    """
    m, n = R.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank {rank} out of range for {m}x{n} matrix")
    if power_iters < 0:
        raise ValueError("power_iters must be >= 0")

    k = min(rank + 10, min(m, n))
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, k))

    # np.asarray turns a sparse product's np.matrix into an ndarray
    Q, _ = np.linalg.qr(np.asarray(R @ omega))
    for _ in range(power_iters):
        Q, _ = np.linalg.qr(np.asarray(R @ (R.T @ Q)))

    B = np.asarray(R.T @ Q).T     # k x n
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub

    U = U[:, :rank]
    s = s[:rank].copy()
    V = Vt[:rank].T.copy()

    # sign convention: largest-magnitude entry of each right column positive
    for j in range(rank):
        idx = np.argmax(np.abs(V[:, j]))
        if V[idx, j] < 0:
            V[:, j] = -V[:, j]
            U[:, j] = -U[:, j]
    return SvdResult(left=np.ascontiguousarray(U), singular_values=s,
                     right=np.ascontiguousarray(V))


def embed_items(train, cfg):
    """Fixed n x h item embeddings of a train matrix: the right factor of its
    rank-h randomized SVD with ``gamma`` power iterations, read with ``seed``
    from the run config ``cfg``. A model is correct only with the V it was
    trained on, and PureSVD scores with the same factor, so every caller
    builds V here; ``AmaConfig`` holds the defaults."""
    if not 1 <= cfg.h <= min(train.shape):
        raise ValueError(f"h={cfg.h} out of range: the embedding size must lie in [1, "
                         f"{min(train.shape)}] for a {'x'.join(map(str, train.shape))} matrix")
    return randomized_svd(train, rank=cfg.h, power_iters=cfg.gamma, seed=cfg.seed).right


_EMB_MAGIC = b"AMAEMB01"


def save_embeddings(V, path, meta):
    """V's AMAEMB01 file (``write_embeddings``) and ``meta`` as a JSON sidecar
    next to it; ``embed`` writes as meta the h, gamma and seed that built V and
    its train matrix's ``matrix_hash`` as ``source_hash``."""
    # both files are complete before either replaces its predecessor
    with atomic_open(path, "wb") as fh, \
            atomic_open(str(path) + ".json", "w", encoding="utf-8") as js:
        write_embeddings(fh, V)
        json.dump(meta, js, indent=2, sort_keys=True)
        js.write("\n")


def write_embeddings(fh, V):
    """Writes V's AMAEMB01 bytes to the binary file ``fh``: magic, uint64 dims
    and the row-major float64 payload. ``save_embeddings`` and ``save_model``
    both write V through it, so a model's stored V is ``embed``'s file."""
    V = np.ascontiguousarray(V, dtype=np.float64)
    fh.write(_EMB_MAGIC)
    fh.write(struct.pack("<QQ", V.shape[0], V.shape[1]))
    fh.write(V.tobytes())


def load_embeddings(path):
    """The V of an AMAEMB01 file. Rejects a truncated header, a length other
    than its header's dims imply and a NaN or an infinity, naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _EMB_MAGIC:
        raise ValueError(f"bad magic bytes in {path}")
    if len(raw) < 24:
        raise ValueError(f"damaged embedding file {path}: header truncated at {len(raw)} bytes")
    rows, cols = struct.unpack_from("<QQ", raw, 8)
    if len(raw) != 24 + rows * cols * 8:
        raise ValueError(f"damaged embedding file {path}: {len(raw)} bytes, "
                         f"expected {24 + rows * cols * 8} for {rows}x{cols}")
    V = np.frombuffer(raw, dtype=np.float64, offset=24).reshape(rows, cols).copy()
    if not np.isfinite(V).all():
        raise ValueError(f"damaged embedding file {path}: it holds a non-finite value")
    return V


def matrix_hash(mat):
    """Stable hash of a sparse matrix's pattern; ties embeddings to their source.

    SHA-256 over the shape, then the int64 row and column of every stored
    entry of the CSR form in (row, column) order, duplicates included."""
    csr = mat.tocsr()
    if not csr.has_sorted_indices:
        csr = csr.copy()
        csr.sort_indices()
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", *mat.shape))
    h.update(np.repeat(np.arange(csr.shape[0], dtype=np.int64), np.diff(csr.indptr)).tobytes())
    h.update(csr.indices.astype(np.int64).tobytes())
    return h.hexdigest()
