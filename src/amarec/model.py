"""The attentive multi-modal autoencoder: encoder, maxout decoder, exact gradients.

A user's observed items attend (scaled dot-product, masked to the observed
set) into d preference-mode vectors; each item's score is the maximum of
the per-mode dot products against a shared decoder row, and the maximizing
mode attributes the recommendation. The decode yields the scores and the
per-mode scores; the attribution (``argmax_mode``) runs only where it is
read: for every item in training, and for the listed items in explanations.
Training minimizes a confidence-weighted squared error between the clean
row and the reconstruction from a corrupted row, plus a Frobenius penalty
on the decoder only.

All functions are pure in (parameters, inputs); gradients are exact
backpropagation with maxout routing to the argmax mode (lowest index on
ties) and the softmax Jacobian restricted to observed items. Each mode is
(sum_j a_jl v_j) W_v + b_l, so no catalog-wide value table is built.

The decode ``U S^T`` and its backward ``dU = G S`` run as one zero-padded
GEMM per block (``_block_matmul``) of 32 users at d = 3, 36 at d = 4 and 48
at d = 1, 2 and 5; a training chunk or AMA ranking call is one block. At the one BLAS thread
``import amarec`` sets, a user gets the same bytes in training, ranking and explanation
for the same arrays. Each stage runs in the dtype of the parameters and V:
``train``'s float32 from ``init_params``, or a loaded model's float64.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import os
import re
import struct
from dataclasses import dataclass, asdict, fields

import numpy as np
import scipy.sparse as sp

from amarec.fileio import atomic_open
from amarec.linalg import embedding_meta, load_embeddings, write_embeddings


def _integer(name, value):
    """A config field's value as an int; one that is not an integer, or is a
    bool, raises. A numpy integer becomes an int, which a sidecar can hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name, value):
    """A config field's value as a float; one that is not a real number, or is
    a bool, raises. A numpy float becomes a float, which a sidecar can hold; an
    int too large for a float becomes an infinity, which no bound admits."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# each float field of AmaConfig, its interval and the interval's test
_REAL_BOUNDS = {"alpha": ("[0, inf)", lambda x: 0 <= x < math.inf),
                "lam": ("[0, inf)", lambda x: 0 <= x < math.inf),
                "rho": ("[0, 1)", lambda x: 0 <= x < 1),
                "learning_rate": ("(0, inf)", lambda x: 0 < x < math.inf)}


@dataclass(frozen=True)
class AmaConfig:
    """Every setting of a training run, the item embeddings' h, gamma and seed
    among them; ``save_model`` records it whole. The one check of a run
    config: each field takes a number of its type, not a bool, within its
    bound, and keeps it as a Python int or float."""

    h: int = 40            # embedding size
    d: int = 3             # preference-mode count
    kappa: int = 3         # key/query size
    alpha: float = 1.0     # confidence weight on observed entries
    lam: float = 1e-5      # decoder regularization
    rho: float = 0.3       # corruption rate
    epochs: int = 300
    seed: int = 0
    learning_rate: float = 1e-3   # adam step size
    batch_size: int = 512         # users per adam step
    gamma: int = 10        # randomized-SVD power iterations of the embedding

    def __post_init__(self):
        for name, least in {"h": 1, "d": 1, "kappa": 1, "epochs": 0, "seed": 0,
                            "batch_size": 1, "gamma": 0}.items():
            value = _integer(name, getattr(self, name))
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)
        for name, (interval, holds) in _REAL_BOUNDS.items():
            value = _real(name, getattr(self, name))
            if not holds(value):   # NaN holds no bound
                raise ValueError(f"{name} must lie in {interval}, got {value}")
            object.__setattr__(self, name, value)


@dataclass
class AmaParameters:
    """Trainable parameters: encoder {W_k, W_v, Q, B} and decoder {S}."""

    W_k: np.ndarray  # h x kappa
    W_v: np.ndarray  # h x h
    Q: np.ndarray    # d x kappa, row l is the query of mode l
    B: np.ndarray    # d x h, row l is the bias of mode l
    S: np.ndarray    # n x h, row j decodes item j

    def copy(self):
        return AmaParameters(*(getattr(self, k).copy() for k in PARAM_NAMES))


PARAM_NAMES = ("W_k", "W_v", "Q", "B", "S")


def parameter_count(n, cfg):
    """Total trainable parameters: n*h + h^2 + d*h + (h+d)*kappa."""
    return n * cfg.h + cfg.h * cfg.h + cfg.d * cfg.h + (cfg.h + cfg.d) * cfg.kappa


def _glorot(rng, rows, cols):
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)


def init_params(n, cfg, rng=None):
    """Uniform Glorot init for the linear maps, drawn in float64 and narrowed;
    B and S start at zero. The parameters are float32, the dtype training runs in."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return AmaParameters(
        W_k=_glorot(rng, cfg.h, cfg.kappa),
        W_v=_glorot(rng, cfg.h, cfg.h),
        Q=_glorot(rng, cfg.d, cfg.kappa),
        B=np.zeros((cfg.d, cfg.h), np.float32),
        S=np.zeros((n, cfg.h), np.float32),
    )


def keys_values(V, params):
    """The per-item keys K, n x kappa: row j is v_j W_k. The values v_j W_v
    need no table, because ``encode`` applies W_v to each mode after the
    attention sum; the name stays, as ``bench/tracing.py`` hooks it."""
    return V @ params.W_k


def _check_embedding(params, V):
    """Raises unless the item embeddings V are n x h, like the decoder S."""
    if np.shape(V) != params.S.shape:
        raise ValueError("the embedding is {}, but the parameters have n={} h={}".format(
            "x".join(map(str, np.shape(V))), *params.S.shape))


class DegenerateUser(ValueError):
    """A mask has no observed entries: there is nothing to attend over."""


@dataclass(frozen=True)
class Segments:
    """A CSR block's attention masks laid end to end: ``obs`` holds row 0's item
    indices, then row 1's, and so on (the block's ``indices``); row b's run
    starts at ``starts[b]``, and ``seg[i]`` is the row of entry i."""

    obs: np.ndarray
    starts: np.ndarray
    seg: np.ndarray

    @classmethod
    def of(cls, masks, first=0):
        """``first`` is the index of the block's row 0 in the caller's batch,
        for the message that names an empty mask."""
        lens = np.diff(masks.indptr)
        if not lens.size:
            raise ValueError("the block has no users")
        if lens.min() == 0:   # reduceat would return garbage for an empty run
            raise DegenerateUser(f"mask {first + int(lens.argmin())} has no observed entries")
        return cls(masks.indices.astype(np.intp), masks.indptr[:-1],
                   np.repeat(np.arange(lens.size), lens))


def attend(K_obs, Q, segs):
    """Masked scaled dot-product attention of a batch of users, N_obs x d.

    ``K_obs`` holds the keys of the items in ``segs.obs``, in that order.
    Column l of user b's rows is the softmax over b's observed items only of
    q_l . k_j / sqrt(kappa), kappa being ``Q``'s column count (max-subtracted).
    """
    logits = np.einsum("jk,lk->jl", K_obs, Q) / math.sqrt(Q.shape[1])
    w = np.exp(logits - np.maximum.reduceat(logits, segs.starts)[segs.seg])
    return w / np.add.reduceat(w, segs.starts)[segs.seg]


def encode(A, V_obs, segs, W_v, B):
    """(Z, U), each B x d x h: row l of user b's Z is the attention-weighted
    sum of b's embeddings (``V_obs`` in the order of ``segs.obs``), and of U,
    the mode Z_l W_v + b_l. W_v is linear and shared, so U_l is the weighted
    sum of b's values v_j W_v plus b_l, with no catalog-wide value table; BLAS
    sees one (d, h) @ (h, h) GEMM per user. Z is summed one mode at a time,
    each an N_obs x h product reduced over every user's run, so no
    N_obs x d x h product is built; the sums run in the same order."""
    Z = np.empty((segs.starts.size, A.shape[1], V_obs.shape[1]), np.result_type(A, V_obs))
    for l in range(A.shape[1]):
        Z[:, l] = np.add.reduceat(A[:, l, None] * V_obs, segs.starts)
    return Z, np.matmul(Z, W_v) + B


def decode_maxout(U, S):
    """(scores, per_mode) of the modes U (B x d x h) against the decoder S
    (n x h): ``per_mode`` holds the B x d x n per-mode scores u_l . s_j and
    ``scores`` their B x n maxout. NaN propagates to the score. Which mode
    attains the max is ``argmax_mode``'s step, run only by a caller that
    reads it. A user's bytes do not depend on the users decoded with it
    (``_block_matmul``). ``per_mode`` is the first B users of a block-padded
    array, its ``base``, whose other rows decode zero modes.
    """
    per_mode = _block_matmul(_padded(U), S.T)[:U.shape[0]]
    return per_mode.max(axis=1), per_mode


# users per block before ``_block_users`` rounds them up, and per call of a scorer
# without ``block`` (AMA's is ``Forward.block``); a constant, not a setting: it sets the bytes
BLOCK = 32


def _block_users(d):
    """Users per block of d modes: BLOCK, rounded up until the GEMM's rows
    are a multiple of 48. OpenBLAS 0.3.31's SkylakeX dgemm kernel sums rows
    in tiles of 24 and the rest in narrower tiles, in another order: at
    BLOCK*d rows, d = 1, 2, 4 or 5, a block's last users got other bytes."""
    step = 48 // math.gcd(48, d)
    return -(-BLOCK // step) * step


def _padded(X):
    """X (users x d x k) padded to whole blocks of ``_block_users(d)`` users
    with zero rows, in X's dtype."""
    users, d, k = X.shape
    block = _block_users(d)
    out = np.empty((-(-users // block) * block, d, k), X.dtype)
    out[:users], out[users:] = X, 0.0
    return out


def _block_matmul(X, Y):
    """``np.matmul(X, Y)`` for X from ``_padded`` (users x d x k) and Y of
    k x m, as one fixed-shape GEMM per block of users. At one BLAS thread,
    which ``import amarec`` sets, it gives a user's rows the same bytes at
    any place in the block, in a short zero-padded block and alone; without
    the padding, or at two threads, a short block can give other bytes."""
    _, d, k = X.shape
    block = _block_users(d)
    out = np.empty((X.shape[0], d, Y.shape[1]), np.result_type(X, Y))
    for lo in range(0, X.shape[0], block):
        np.matmul(X[lo:lo + block].reshape(block * d, k), Y,
                  out=out[lo:lo + block].reshape(block * d, -1))
    return out


def argmax_mode(per_mode, scores):
    """Each item's maxout mode, B x k: the lowest mode whose per-mode score
    equals the item's score (-0.0 equals 0.0), and mode 0 for a NaN score.
    ``per_mode`` (B x d x k) and ``scores`` (B x k) are ``decode_maxout``'s
    two results, or both taken at the same k items, which gives the full
    result's modes at those items."""
    # the lowest maximizing mode is the number of leading modes below the max
    below = per_mode[:, 0] < scores
    mode_of = below.astype(np.intp)
    for l in range(1, per_mode.shape[1] - 1):
        below &= per_mode[:, l] < scores
        mode_of += below
    return mode_of


def confidence_weights(r, alpha):
    """WRMF-style weights 1 + alpha * ln(1 + r) on a binary row."""
    return 1.0 + alpha * np.log1p(np.asarray(r, dtype=np.float64))


def corrupt(rows, rho, rng):
    """The CSR block ``rows`` with each stored entry dropped independently
    with probability rho: one ``rng.random`` draw per entry, in CSR order, so
    an empty row draws nothing."""
    keep = rng.random(rows.nnz) >= rho
    return sp.csr_matrix((rows.data[keep], rows.indices[keep],
                          np.cumsum(np.r_[0, keep])[rows.indptr]), shape=rows.shape)


class Forward:
    """The forward pass that training, scoring and explanation share, sized by
    the arrays alone, with the keys over the whole catalog built once
    (``V[obs] @ W_k`` gives other bytes than ``(V @ W_k)[obs]``). A call
    decodes its users in blocks of ``block`` users (see ``decode_maxout``)."""

    def __init__(self, params, V):
        self.params, self.V = params, np.asarray(V)
        _check_embedding(params, self.V)
        self.K = keys_values(self.V, params)
        self.block = _block_users(params.Q.shape[0])

    def attention(self, masks, first=0):
        """(segs, A): the CSR block ``masks`` laid end to end, and its attention."""
        segs = Segments.of(masks, first)
        return segs, attend(self.K[segs.obs], self.params.Q, segs)

    def __call__(self, masks, first=0):
        """(segs, A, Z, U, scores, per_mode) of the CSR block ``masks``: the
        attention, the B x d x h modes before W_v and the modes themselves (see
        ``encode``), and the B x n maxout scores with the B x d x n per-mode
        scores they maximize over (see ``decode_maxout``)."""
        segs, A = self.attention(masks, first)
        Z, U = encode(A, self.V[segs.obs], segs, self.params.W_v, self.params.B)
        return (segs, A, Z, U, *decode_maxout(U, self.params.S))


def batch_gradients(R, masks, params, V, alpha):
    """Forward and exact backward pass of the data term for a batch of users.

    ``R`` and ``masks`` are CSR blocks of B rows: user b's clean binary row (the
    target) and the items it attends over; ``alpha`` is the confidence weight
    on the row's observed entries. Returns the gradients summed over the batch
    (keyed by PARAM_NAMES; the caller adds the decoder penalty's) and the
    per-user data losses, in the dtype of ``params`` and V. One ``Forward``
    serves the whole call; each chunk is one block (``Forward.block``) and
    reads its targets from ``R``'s CSR arrays, never densified; chunks sum in
    ascending order, so no temporary grows with the batch.
    """
    if masks.shape[0] == 0:
        raise ValueError("batch_gradients needs at least one user")
    forward, losses = Forward(params, V), []
    for lo in range(0, masks.shape[0], forward.block):
        rows = slice(lo, lo + forward.block)
        chunk, loss = _chunk_gradients(R, lo, forward(masks[rows], lo), forward, alpha)
        if lo == 0:
            grads = chunk
        else:
            for name in PARAM_NAMES:
                grads[name] += chunk[name]
        losses.append(loss)
    return grads, np.concatenate(losses)


def _error(scores, R, lo, alpha):
    """(g, losses) of the B_c x n ``scores`` against the CSR rows of ``R`` from
    ``lo``: g = d(loss)/d(scores), and each row's sum of c (r - s)^2, where c
    weighs a 1 by ``alpha`` and a 0 by 1. Off the 1s, g = 2 s and the term is s^2."""
    (nb, n), ptr = scores.shape, R.indptr[lo:lo + scores.shape[0] + 1]
    at = np.repeat(np.arange(0, nb * n, n), np.diff(ptr)) + R.indices[ptr[0]:ptr[-1]]
    c_obs = float(confidence_weights(1.0, alpha))   # a numpy float64 widens float32 products
    g, sq = scores * 2.0, scores * scores
    miss = 1.0 - scores.take(at)
    np.put(g, at, miss * (-2.0 * c_obs))
    np.put(sq, at, c_obs * miss * miss)
    return g, sq.sum(axis=1)


def _chunk_gradients(R, lo, result, forward, alpha):
    """The gradients and losses of a chunk from its ``result``, against the
    clean rows of ``R`` from ``lo``, read from its CSR arrays (``_error``).

    The routed error G is written over the per-mode scores, in the decode's
    block-padded array, so ``dU = G S`` runs as one block GEMM
    (``_block_matmul``), like the decode; ``dS`` and the W_v gradient are
    GEMMs whose inner dimension runs over the chunk's B_c*d modes. Sums over
    the observed items run in numpy (reduceat, einsum), whose order is fixed.
    The forward's Z gives the W_v gradient, and the attention gradient reads
    the embeddings through ``dU W_v^T``, so no value table is needed.
    """
    segs, A, Z, U, scores, per_mode = result
    mode_of = argmax_mode(per_mode, scores)   # every item's mode routes its error
    del result
    params = forward.params
    K_obs, V_obs = forward.K[segs.obs], forward.V[segs.obs]
    nb, d, h = U.shape
    g, losses = _error(scores, R, lo, alpha)
    del scores
    # routed gradients: G[b, l] is user b's error on the items that take mode l
    G = per_mode.base   # the decode's block-padded array: dU keeps its first nb users
    np.multiply(g[:, None], mode_of[:, None] == np.arange(d)[:, None], out=per_mode)
    del g, mode_of, per_mode
    dS = G[:nb].reshape(nb * d, -1).T @ U.reshape(nb * d, h)   # inner dimension B_c*d
    dU = _block_matmul(G, params.S)[:nb]
    dA = np.einsum("jlh,jh->jl", np.matmul(dU, params.W_v.T)[segs.seg], V_obs)
    dLogit = A * (dA - np.add.reduceat(A * dA, segs.starts)[segs.seg])
    sk = math.sqrt(params.Q.shape[1])
    grads = {"W_k": np.einsum("ja,jl->al", V_obs, dLogit) @ params.Q / sk,
             "W_v": Z.reshape(nb * d, h).T @ dU.reshape(nb * d, h),
             "Q": np.einsum("jl,jk->lk", dLogit, K_obs) / sk, "B": dU.sum(axis=0), "S": dS}
    return grads, losses


_MDL_MAGIC = b"AMAMDL01"


def _sizes(params, cfg):
    """The parameters' (n, h, d, kappa); a config whose h, d or kappa differs raises."""
    (n, h), (d, kappa) = params.S.shape, params.Q.shape
    for key, value in (("h", h), ("d", d), ("kappa", kappa)):
        if getattr(cfg, key) != value:
            raise ValueError(f"the config gives {key}={getattr(cfg, key)}, "
                             f"but the parameters have {key}={value}")
    return n, h, d, kappa


def save_model(params, cfg, path, item_index_hash="", V=None):
    """Binary container: magic, version, dims (n,h,d,kappa), then the five
    parameter matrices row-major float64. A JSON sidecar carries the config,
    whose h, gamma and seed build the model's V with ``embed_items``, and the
    train matrix hash. A V, when given, goes beside them as ``<path>.emb`` and
    ``<path>.emb.json``, the bytes ``embed`` writes for that config and train
    matrix (AMAEMB01, ``embedding_meta`` as meta), and the sidecar records its
    SHA-256; without a V, a pair an earlier save left at ``path`` is removed
    once the new sidecar is in place. A config whose h, d or kappa differs
    from the parameters', or a V that is not n x h, raises before any file
    opens."""
    n, h, d, kappa = _sizes(params, cfg)   # load_model checks the config's sizes too
    sidecar = {"config": asdict(cfg), "item_index_hash": item_index_hash,
               "n": n, "h": h, "d": d, "kappa": kappa}
    if V is not None:
        V = np.ascontiguousarray(V, dtype=np.float64)
        _check_embedding(params, V)
        sidecar["embedding_sha256"] = _sha256(V)
    # every file is complete before any replaces its predecessor; the sidecar,
    # which decides whether the V pair is read, is replaced after that pair
    with contextlib.ExitStack() as files:
        fh = files.enter_context(atomic_open(path, "wb"))
        js = files.enter_context(atomic_open(str(path) + ".json", "w", encoding="utf-8"))
        if V is not None:
            write_embeddings(files.enter_context(atomic_open(str(path) + ".emb", "wb")),
                             files.enter_context(atomic_open(str(path) + ".emb.json", "w",
                                                             encoding="utf-8")),
                             V, embedding_meta(cfg, item_index_hash))
        fh.write(_MDL_MAGIC)
        fh.write(struct.pack("<IQQQQ", 1, n, h, d, kappa))
        for name in PARAM_NAMES:
            fh.write(np.ascontiguousarray(getattr(params, name), dtype=np.float64).tobytes())
        json.dump(sidecar, js, indent=2, sort_keys=True)
        js.write("\n")
    if V is None:   # an earlier save's pair would look like this model's V
        for stale in (f"{path}.emb", f"{path}.emb.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(stale)


def _sha256(V):
    """The hex SHA-256 of a C-order float64 V's bytes, the payload of its AMAEMB01 file."""
    return hashlib.sha256(V).hexdigest()


def _sidecar_config(sidecar, path, params):
    """The checked AmaConfig of a model sidecar that holds what ``save_model``
    writes for ``params``: a JSON object with the parameters' dims, a string
    ``item_index_hash`` and a ``config`` object holding exactly the AmaConfig
    fields, which AmaConfig accepts and whose h, d and kappa are the
    parameters' (``_sizes``). Any other sidecar raises a ValueError naming the
    file and the field; one saved before ``gamma`` joined the config lacks it."""
    where = f"model sidecar {path}.json"
    if not isinstance(sidecar, dict):
        raise ValueError(f"{where} is not a JSON object")
    if not isinstance(sidecar.get("item_index_hash"), str):
        raise ValueError(f"{where}: item_index_hash must be a string, "
                         f"got {sidecar.get('item_index_hash')!r}")
    if not isinstance(sidecar.get("config", {}), dict):
        raise ValueError(f"{where}: config must be a JSON object")
    config, names = sidecar.get("config", {}), {f.name for f in fields(AmaConfig)}
    unknown, missing = sorted(config.keys() - names), sorted(names - config.keys())
    if unknown:
        raise ValueError(f"{where}: unknown config key {unknown[0]!r}")
    if missing:
        raise ValueError(f"{where}: config lacks the key {missing[0]!r}")
    try:
        cfg = AmaConfig(**config)
    except ValueError as exc:
        raise ValueError(f"{where}: config: {exc}") from None
    try:
        dims = dict(zip(("n", "h", "d", "kappa"), _sizes(params, cfg)))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    for key, value in dims.items():
        if sidecar.get(key) != value:
            raise ValueError(f"{where} gives {key}={sidecar.get(key)}, "
                             f"but the model file has {key}={value}")
    return cfg


def load_model(path):
    """Returns (AmaParameters, AmaConfig, item_index_hash, V): the run config
    the model was saved with, whose h, gamma and seed rebuild its V with
    ``embed_items``, its train matrix's hash, ``""`` when unknown, and the V
    stored beside it, ``None`` when the sidecar records none. The sidecar must
    exist and hold what today's ``save_model`` writes; AmaConfig checks its
    config.

    Rejects a file whose length differs from what its header's dims imply, a
    parameter holding a NaN or an infinity, a sidecar that is malformed or
    disagrees with the header (see ``_sidecar_config``), and a recorded V
    whose file is missing or damaged, is not n x h or has another SHA-256.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _MDL_MAGIC:
        raise ValueError(f"bad magic bytes in {path}")
    if len(raw) < 44:
        raise ValueError(f"damaged model file {path}: header truncated at {len(raw)} bytes")
    version, n, h, d, kappa = struct.unpack_from("<IQQQQ", raw, 8)
    if version != 1:
        raise ValueError(f"unsupported model version {version}")
    shapes = {"W_k": (h, kappa), "W_v": (h, h), "Q": (d, kappa),
              "B": (d, h), "S": (n, h)}
    expected = 44 + 8 * sum(r * c for r, c in shapes.values())
    if len(raw) != expected:
        raise ValueError(f"damaged model file {path}: {len(raw)} bytes, expected "
                         f"{expected} for n={n} h={h} d={d} kappa={kappa}")
    arrays, offset = {}, 44
    for name in PARAM_NAMES:
        r, c = shapes[name]
        arrays[name] = np.frombuffer(raw, np.float64, r * c, offset).reshape(r, c).copy()
        offset += r * c * 8
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"damaged model file {path}: parameter {name} holds a "
                             "non-finite value")
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
        except ValueError as exc:   # malformed JSON or not UTF-8
            raise ValueError(f"model sidecar {path}.json is not readable JSON: {exc}") from None
    params = AmaParameters(**arrays)
    cfg = _sidecar_config(sidecar, path, params)
    return params, cfg, sidecar["item_index_hash"], _stored_embedding(sidecar, path, n, h)


def _stored_embedding(sidecar, path, n, h):
    """The n x h V that the sidecar's ``embedding_sha256`` records in ``<path>.emb``,
    or None when it records none."""
    if "embedding_sha256" not in sidecar:
        return None
    recorded = sidecar["embedding_sha256"]
    where = f"model sidecar {path}.json"
    if not (isinstance(recorded, str) and re.fullmatch("[0-9a-f]{64}", recorded)):
        raise ValueError(f"{where}: embedding_sha256 must be 64 lowercase hex digits, "
                         f"got {recorded!r}")
    try:
        V = load_embeddings(f"{path}.emb")
    except (OSError, ValueError) as exc:
        raise ValueError(f"{where} records an embedding, but {path}.emb is unreadable: "
                         f"{exc}") from None
    if V.shape != (n, h):
        raise ValueError(f"{where} records an embedding, but {path}.emb is "
                         f"{V.shape[0]}x{V.shape[1]}, not n={n} x h={h}")
    if _sha256(V) != recorded:
        raise ValueError(f"{path}.emb is not the embedding {where} records: "
                         "its SHA-256 differs")
    return V
