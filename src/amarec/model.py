"""The attentive multi-modal autoencoder: encoder, maxout decoder, exact gradients.

A user's observed items attend (scaled dot-product, masked to the observed
set) into d preference-mode vectors; each item's score is the maximum of
the per-mode dot products against a shared decoder row, and the maximizing
mode attributes the recommendation. Training minimizes a confidence-weighted
squared error between the clean row and the reconstruction from a corrupted
row, plus a Frobenius penalty on the decoder only.

All functions are pure in (parameters, inputs); gradients are exact
backpropagation with maxout routing to the argmax mode (lowest index on
ties) and the softmax Jacobian restricted to observed items. Each mode is
(sum_j a_jl v_j) W_v + b_l, so no catalog-wide value table is built. The
backward pass computes the decoder gradient on one helper thread; only
numpy and BLAS work runs there, never a public function of this package.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, fields

import numpy as np
import scipy.sparse as sp

from amarec.fileio import atomic_open
from amarec.linalg import RECIPE_DEFAULTS, load_embeddings, write_embeddings


def _integer(name, value):
    """A config field's value as an int; one that is not an integer, or is a
    bool, raises. A numpy integer becomes an int, which a sidecar can hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AmaConfig:
    """Every setting of a training run; ``save_model`` records it whole."""

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

    def __post_init__(self):
        for name, least in {"h": 1, "d": 1, "kappa": 1, "epochs": 0, "seed": 0,
                            "batch_size": 1}.items():
            value = _integer(name, getattr(self, name))
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be > 0 and finite")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not (0 <= self.alpha < math.inf and 0 <= self.lam < math.inf):
            raise ValueError("alpha and lam must be >= 0 and finite")


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
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_params(n, cfg, rng=None):
    """Uniform Glorot init for the linear maps; B and S start at zero."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return AmaParameters(
        W_k=_glorot(rng, cfg.h, cfg.kappa),
        W_v=_glorot(rng, cfg.h, cfg.h),
        Q=_glorot(rng, cfg.d, cfg.kappa),
        B=np.zeros((cfg.d, cfg.h)),
        S=np.zeros((n, cfg.h)),
    )


def keys_values(V, params):
    """The per-item keys K, n x kappa: row j is v_j W_k. The values v_j W_v
    need no table, because ``encode`` applies W_v to each mode after the
    attention sum; the name stays, as ``bench/tracing.py`` hooks it."""
    V = np.asarray(V)
    if V.shape[1] != params.W_k.shape[0]:
        raise ValueError(
            f"embedding size {V.shape[1]} does not match W_k rows {params.W_k.shape[0]}"
        )
    return V @ params.W_k


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
    sees one (d, h) @ (h, h) GEMM per user."""
    Z = np.add.reduceat(A[:, :, None] * V_obs[:, None], segs.starts)
    return Z, np.matmul(Z, W_v) + B


def decode_maxout(U, S_T):
    """Per-item maxout over modes of u_l . s_j for each user of U (B x d x h):
    the B x n scores and each item's argmax mode, lowest on ties.

    ``S_T`` is ``Forward.S_T``. BLAS sees one (d, h) @ (h, n) GEMM per user,
    whose bytes do not depend on the batch or the BLAS thread count;
    ``np.matmul(U, S_T)`` gives the per-mode scores it maximizes over.
    """
    per_mode = np.matmul(U, S_T)   # B x d x n, freed on return
    scores = per_mode.max(axis=1)   # NaN propagates; such an item gets mode 0
    # the lowest maximizing mode is the number of leading modes below the max
    below = per_mode[:, 0] < scores
    mode_of = below.astype(np.intp)
    for l in range(1, U.shape[1] - 1):
        below &= per_mode[:, l] < scores
        mode_of += below
    return scores, mode_of


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
    the arrays alone, with its item tables built once: the keys over the whole
    catalog (``V[obs] @ W_k`` gives other bytes than ``(V @ W_k)[obs]``) and
    ``S_T``, a C-order copy of ``S.T`` (the transposed view gives other bytes)."""

    def __init__(self, params, V):
        self.params, self.V = params, np.asarray(V)
        self.K = keys_values(self.V, params)
        self.S_T = np.ascontiguousarray(params.S.T)

    def attention(self, masks, first=0):
        """(segs, A): the CSR block ``masks`` laid end to end, and its attention."""
        segs = Segments.of(masks, first)
        return segs, attend(self.K[segs.obs], self.params.Q, segs)

    def __call__(self, masks, first=0):
        """(segs, A, Z, U, scores, mode_of) of the CSR block ``masks``: the
        attention, the B x d x h modes before W_v and the modes themselves (see
        ``encode``), and the B x n maxout scores with each item's mode."""
        segs, A = self.attention(masks, first)
        Z, U = encode(A, self.V[segs.obs], segs, self.params.W_v, self.params.B)
        return (segs, A, Z, U, *decode_maxout(U, self.S_T))


# users per forward/backward pass of batch_gradients: a fixed constant, not a
# setting, because it decides which GEMMs run and so the gradients' bytes
CHUNK = 32


def batch_gradients(R, masks, params, V, alpha):
    """Forward and exact backward pass of the data term for a batch of users.

    ``R`` and ``masks`` are CSR blocks of B rows: user b's clean binary row (the
    target) and the items it attends over; ``alpha`` is the confidence weight
    on the row's observed entries. Returns
    the gradients summed over the batch (keyed by PARAM_NAMES; the caller adds the
    decoder penalty's) and the per-user data losses. One ``Forward`` serves the
    whole call; the users run in chunks of CHUNK, each densifying only its rows
    of ``R``, summed in ascending chunk order, so no temporary grows with the batch.
    """
    if masks.shape[0] == 0:
        raise ValueError("batch_gradients needs at least one user")
    forward = Forward(params, V)
    losses = []
    for lo in range(0, masks.shape[0], CHUNK):
        rows = slice(lo, lo + CHUNK)
        chunk, loss = _chunk_gradients(R[rows].toarray(), forward(masks[rows], lo), forward, alpha)
        if lo == 0:
            grads = chunk
        else:
            for name in PARAM_NAMES:
                grads[name] += chunk[name]
        losses.append(loss)
    return grads, np.concatenate(losses)


def _chunk_gradients(R, result, forward, alpha):
    """The gradients and losses of the dense clean rows ``R`` from their ``result``.

    BLAS sees only products whose bytes do not depend on the BLAS thread
    count: one GEMM per user, and GEMMs whose inner dimension runs over the
    chunk's B_c*d modes. A GEMM with B_c*d rows and inner dimension n can
    split its sums differently under different thread counts, so ``dU`` runs
    as one ``(d, n) @ (n, h)`` GEMM per user. Sums over the observed items
    run in numpy (reduceat, einsum), whose order is fixed. The forward's Z
    gives the W_v gradient, and the attention gradient reads the embeddings
    through ``dU W_v^T``, so no value table is needed.

    The decoder gradient dS = G^T U reads only the routed error G and the
    modes U, so it runs on the helper thread while this thread runs the rest;
    the same GEMMs run, so the bytes are those of a serial run. Only numpy and
    BLAS calls may run there, never a public amarec function: the bench's
    tracer keeps one span stack and would misattribute a span from another thread.
    """
    segs, A, Z, U, scores, mode_of = result
    params = forward.params
    K_obs, V_obs = forward.K[segs.obs], forward.V[segs.obs]
    nb, d, h = U.shape
    g = R - scores                         # the error, then d(loss)/d(scores)
    del result, scores   # the caller holds no other reference: this frees the scores
    c_obs = confidence_weights(1.0, alpha)   # the weight of a binary row's 1s; its 0s get 1
    c = np.where(R != 0, c_obs, 1.0)
    losses = np.einsum("bj,bj,bj->b", c, g, g)
    c *= -2.0
    g *= c
    # routed gradients: G[b, l] is user b's error on the items that take mode l
    G = g[:, None] * (mode_of[:, None] == np.arange(d)[:, None])
    del g, mode_of
    # one GEMM, inner dimension B_c*d, on the helper thread
    dS = _HELPER.submit(np.matmul, G.reshape(nb * d, -1).T, U.reshape(nb * d, h))
    try:
        dU = np.matmul(G, params.S)                           # one GEMM per user
        dA = np.einsum("jlh,jh->jl", np.matmul(dU, params.W_v.T)[segs.seg], V_obs)
        dLogit = A * (dA - np.add.reduceat(A * dA, segs.starts)[segs.seg])
        sk = math.sqrt(params.Q.shape[1])
        grads = {"W_k": np.einsum("ja,jl->al", V_obs, dLogit) @ params.Q / sk,
                 "W_v": Z.reshape(nb * d, h).T @ dU.reshape(nb * d, h),
                 "Q": np.einsum("jl,jk->lk", dLogit, K_obs) / sk, "B": dU.sum(axis=0)}
    finally:
        dS = dS.result()   # read even when this thread raised: no task outlives the call
    grads["S"] = dS
    return grads, losses


def _new_helper():
    """The helper thread of ``_chunk_gradients``: the executor starts it at
    the first submit, so importing this module starts no thread."""
    return ThreadPoolExecutor(1, thread_name_prefix="amarec-dS")


_HELPER = _new_helper()
# a forked child inherits the executor but not its thread: it gets its own
os.register_at_fork(after_in_child=lambda: globals().update(_HELPER=_new_helper()))


_MDL_MAGIC = b"AMAMDL01"


def _sizes(params, cfg):
    """The parameters' (n, h, d, kappa); a config whose h, d or kappa differs raises."""
    (n, h), (d, kappa) = params.S.shape, params.Q.shape
    for key, value in (("h", h), ("d", d), ("kappa", kappa)):
        if getattr(cfg, key) != value:
            raise ValueError(f"the config gives {key}={getattr(cfg, key)}, "
                             f"but the parameters have {key}={value}")
    return n, h, d, kappa


def save_model(params, cfg, path, item_index_hash="", embedding=None, V=None):
    """Binary container: magic, version, dims (n,h,d,kappa), then the five
    parameter matrices row-major float64. A JSON sidecar carries the config,
    the train matrix hash and the embedding recipe, when given. A V, when
    given, goes beside them as ``<path>.emb`` and ``<path>.emb.json``, laid out
    as ``embed`` writes it (AMAEMB01, the recipe and ``source_hash`` as meta),
    and the sidecar records its SHA-256; without a V, a pair an earlier save
    left at ``path`` is removed once the new sidecar is in place. A config whose
    h, d or kappa differs from the parameters', or a V that is not n x h, raises
    before any file opens."""
    n, h, d, kappa = _sizes(params, cfg)   # load_model checks the config's sizes too
    sidecar = {"config": asdict(cfg), "item_index_hash": item_index_hash,
               "n": n, "h": h, "d": d, "kappa": kappa}
    if embedding is not None:
        sidecar["embedding"] = embedding
    if V is not None:
        V = np.ascontiguousarray(V, dtype=np.float64)
        if V.shape != (n, h):
            raise ValueError(f"the embedding is {'x'.join(map(str, V.shape))}, "
                             f"but the parameters have n={n} h={h}")
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
                             V, {**(embedding or {}), "source_hash": item_index_hash})
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


# each AmaConfig field and the JSON types its sidecar value may take
_CONFIG_TYPES = {f.name: (int,) if isinstance(f.default, int) else (int, float)
                 for f in fields(AmaConfig)}
# embedding keys that older model sidecars record, with the one value rebuilt today
_RETIRED_RECIPE = {"oversample": 10, "scale": "none"}


def _sidecar_config(sidecar, path, dims):
    """The embedding recipe of a model sidecar whose layout and dims hold: a
    JSON object with the header's dims, a string ``item_index_hash``, an
    optional ``embedding`` object of integer recipe values whose ``h``, if
    recorded, is the model's, and a ``config`` object holding every AmaConfig
    field (``learning_rate`` and ``batch_size`` may be absent), each a finite
    number of its type that AmaConfig accepts, with the header's h, d and kappa.
    Any other sidecar raises a ValueError naming the file and the field. A
    recipe key the sidecar does not record resolves as ``train`` sets it:
    ``h`` and ``seed`` from the config, ``gamma`` from RECIPE_DEFAULTS."""
    where = f"model sidecar {path}.json"
    if not isinstance(sidecar, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key, value in dims.items():
        if sidecar.get(key) != value:
            raise ValueError(f"{where} gives {key}={sidecar.get(key)}, "
                             f"but the model file has {key}={value}")
    if not isinstance(sidecar.get("item_index_hash"), str):
        raise ValueError(f"{where}: item_index_hash must be a string, "
                         f"got {sidecar.get('item_index_hash')!r}")
    for key in ("config", "embedding"):
        if not isinstance(sidecar.get(key, {}), dict):
            raise ValueError(f"{where}: {key} must be a JSON object")
    config = sidecar.get("config", {})
    unknown = sorted(config.keys() - _CONFIG_TYPES.keys())
    if unknown:
        raise ValueError(f"{where}: unknown config key {unknown[0]!r}")
    # sidecars written before the optimizer settings were recorded lack them
    missing = sorted(_CONFIG_TYPES.keys() - config.keys() - {"learning_rate", "batch_size"})
    if missing:
        raise ValueError(f"{where}: config lacks the key {missing[0]!r}")
    for key, value in config.items():
        if (isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key])
                or isinstance(value, float) and not math.isfinite(value)):
            raise ValueError(f"{where}: config.{key} must be a finite "
                             f"{_CONFIG_TYPES[key][-1].__name__}, got {value!r}")
        if dims.get(key, value) != value:
            raise ValueError(f"{where} gives config.{key}={value}, "
                             f"but the model file has {key}={dims[key]}")
    try:
        cfg = AmaConfig(**config)
    except ValueError as exc:
        raise ValueError(f"{where}: config: {exc}") from None
    recorded = sidecar.get("embedding", {})
    for key, value in recorded.items():
        if key in RECIPE_DEFAULTS and (isinstance(value, bool) or not isinstance(value, int)
                                       or value < 0):
            raise ValueError(f"{where} records the embedding setting {key}={value!r}, "
                             "which is not an integer >= 0")
        if key not in RECIPE_DEFAULTS and (key, value) not in _RETIRED_RECIPE.items():
            raise ValueError(f"{where} records the embedding setting {key}={value}, "
                             "which this version cannot rebuild")
        if key == "h" and value != cfg.h:
            raise ValueError(f"{where} records the embedding setting h={value}, "
                             f"but the model file has h={cfg.h}")
    # a key the sidecar does not record takes the value train gives it
    defaults = {**RECIPE_DEFAULTS, "h": cfg.h, "seed": cfg.seed}
    return {key: recorded.get(key, value) for key, value in defaults.items()}


def load_model(path):
    """Returns (AmaParameters, recipe, item_index_hash, V): the ``embed_items``
    keywords that rebuild the V the model was trained with, its train
    matrix's hash, ``""`` when unknown, and the V stored beside it, ``None``
    when the sidecar records none. The sidecar must exist; its config is checked.

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
        sidecar = json.load(fh)
    recipe = _sidecar_config(sidecar, path, {"n": n, "h": h, "d": d, "kappa": kappa})
    V = _stored_embedding(sidecar, path, n, h)
    return AmaParameters(**arrays), recipe, sidecar["item_index_hash"], V


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
