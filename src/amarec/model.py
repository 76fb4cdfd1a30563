"""The attentive multi-modal autoencoder: encoder, maxout decoder, loss, gradients.

A user's observed items attend (scaled dot-product, masked to the observed
set) into d preference-mode vectors; each item's score is the maximum of
the per-mode dot products against a shared decoder row, and the maximizing
mode attributes the recommendation. Training minimizes a confidence-weighted
squared error between the clean row and the reconstruction from a corrupted
row, plus a Frobenius penalty on the decoder only.

All functions are pure in (parameters, inputs); gradients are exact
backpropagation with maxout routing to the argmax mode (lowest index on
ties) and the softmax Jacobian restricted to observed items.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np


@dataclass(frozen=True)
class AmaConfig:
    h: int = 40            # embedding size
    d: int = 3             # preference-mode count
    kappa: int = 3         # key/query size
    alpha: float = 1.0     # confidence weight on observed entries
    lam: float = 1e-5      # decoder regularization
    rho: float = 0.3       # corruption rate
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.h < 1 or self.d < 1 or self.kappa < 1:
            raise ValueError("h, d and kappa must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("alpha and lam must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


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


@dataclass(frozen=True)
class Prediction:
    scores: np.ndarray   # length n
    mode_of: np.ndarray  # length n, argmax mode per item (lowest index on ties)


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
    """Per-item keys and values: row j of K is v_j W_k, of Vt is v_j W_v."""
    V = np.asarray(V)
    if V.shape[1] != params.W_k.shape[0]:
        raise ValueError(
            f"embedding size {V.shape[1]} does not match W_k rows {params.W_k.shape[0]}"
        )
    return V @ params.W_k, V @ params.W_v


def attend(K, queries, obs, kappa):
    """Masked scaled dot-product attention rows, one per mode.

    Returns a d x len(obs) matrix; row l is the softmax of q_l . k_j / sqrt(kappa)
    over the observed items only (max-subtracted for numerical stability).
    """
    obs = np.asarray(obs, dtype=np.intp)
    if obs.size == 0:
        raise ValueError("cannot attend over an empty observed set")
    logits = queries @ K[obs].T / math.sqrt(kappa)   # d x n_obs
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def encode(A, Vt_obs, B):
    """Mode matrix U: row l is the attention-weighted sum of values plus b_l."""
    return A @ Vt_obs + B


def decode_maxout(U, S):
    """Per-item maxout over modes of u_l . s_j; argmax ties go to the lowest mode."""
    per_mode = U @ S.T                 # d x n
    return Prediction(
        scores=per_mode.max(axis=0),
        mode_of=per_mode.argmax(axis=0),
    )


def confidence_weights(r, alpha):
    """WRMF-style weights 1 + alpha * ln(1 + r) on a binary row."""
    return 1.0 + alpha * np.log1p(np.asarray(r, dtype=np.float64))


def corrupt(obs, rho, rng):
    """Drop each observed index independently with probability rho."""
    obs = np.asarray(obs, dtype=np.intp)
    if rho <= 0.0:
        return obs.copy()
    keep = rng.random(obs.size) >= rho
    return obs[keep]


def _forward(r, mask_obs, params, V, cfg):
    K, Vt = keys_values(V, params)
    A = attend(K, params.Q, mask_obs, cfg.kappa)
    U = encode(A, Vt[mask_obs], params.B)
    pred = decode_maxout(U, params.S)
    c = confidence_weights(r, cfg.alpha)
    err = np.asarray(r, dtype=np.float64) - pred.scores
    data_loss = float(np.dot(c, err * err))
    return K, Vt, A, U, pred, c, err, data_loss


def loss(r, mask_obs, params, V, cfg):
    """Weighted denoising squared error plus decoder penalty for one user.

    ``r`` is the clean binary row (the reconstruction target); ``mask_obs``
    are the item indices of the (possibly corrupted) row used as the
    attention mask. Returns (objective, Prediction).
    """
    mask_obs = np.asarray(mask_obs, dtype=np.intp)
    if mask_obs.size == 0:
        raise DegenerateUser("no observed entries left to encode from")
    *_, pred, _, _, data_loss = _forward(r, mask_obs, params, V, cfg)
    return data_loss + cfg.lam * float(np.sum(params.S * params.S)), pred


class DegenerateUser(Exception):
    """The corrupted row has no observed entries; skip this user this epoch."""


def gradients(r, mask_obs, params, V, cfg, include_regularizer=True):
    """Exact gradient of loss() with respect to every trainable parameter.

    Maxout routes each item's gradient to its argmax mode only; the softmax
    Jacobian is applied over observed items only. Returns a dict keyed by
    PARAM_NAMES, plus the scalar objective and the Prediction under
    ``"loss"`` and ``"prediction"``.
    """
    mask_obs = np.asarray(mask_obs, dtype=np.intp)
    if mask_obs.size == 0:
        raise DegenerateUser("no observed entries left to encode from")
    K, Vt, A, U, pred, c, err, data_loss = _forward(r, mask_obs, params, V, cfg)
    d, n = params.Q.shape[0], params.S.shape[0]

    g = -2.0 * c * err                         # d(loss)/d(scores), length n
    dS = g[:, None] * U[pred.mode_of]          # n x h
    one_hot = np.zeros((d, n))
    one_hot[pred.mode_of, np.arange(n)] = 1.0
    dU = one_hot @ (g[:, None] * params.S)     # d x h

    dB = dU.copy()
    V_obs = np.asarray(V)[mask_obs]
    dVt_obs = A.T @ dU                         # n_obs x h
    dA = dU @ Vt[mask_obs].T                   # d x n_obs
    dLogit = A * (dA - np.sum(A * dA, axis=1, keepdims=True))
    sk = math.sqrt(cfg.kappa)
    dQ = dLogit @ K[mask_obs] / sk             # d x kappa
    dK_obs = dLogit.T @ params.Q / sk          # n_obs x kappa
    dW_k = V_obs.T @ dK_obs
    dW_v = V_obs.T @ dVt_obs

    objective = data_loss
    if include_regularizer:
        dS = dS + 2.0 * cfg.lam * params.S
        objective += cfg.lam * float(np.sum(params.S * params.S))
    return {
        "W_k": dW_k, "W_v": dW_v, "Q": dQ, "B": dB, "S": dS,
        "loss": objective, "prediction": pred,
    }


_MDL_MAGIC = b"AMAMDL01"


def save_model(params, cfg, path, item_index_hash="", embedding=None):
    """Binary container: magic, version, dims (n,h,d,kappa), then the five
    parameter matrices row-major float64. A JSON sidecar carries the config,
    the train matrix hash and the embedding recipe, when given."""
    n, h = params.S.shape
    d, kappa = params.Q.shape
    with open(path, "wb") as fh:
        fh.write(_MDL_MAGIC)
        fh.write(struct.pack("<IQQQQ", 1, n, h, d, kappa))
        for name in PARAM_NAMES:
            fh.write(np.ascontiguousarray(getattr(params, name), dtype=np.float64).tobytes())
    sidecar = {"config": asdict(cfg), "item_index_hash": item_index_hash,
               "n": n, "h": h, "d": d, "kappa": kappa}
    if embedding is not None:
        sidecar["embedding"] = embedding
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sidecar(path):
    """The JSON sidecar written next to a model file."""
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_model(path):
    """Returns (AmaParameters, AmaConfig). The sidecar JSON must be present.

    Rejects a file whose length differs from what its header's dims imply and
    a sidecar whose dims disagree with the header.
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
    sidecar = read_sidecar(path)
    for key, value in (("n", n), ("h", h), ("d", d), ("kappa", kappa)):
        if sidecar.get(key) != value:
            raise ValueError(f"model sidecar of {path} gives {key}={sidecar.get(key)}, "
                             f"but the model file has {key}={value}")
    cfg = AmaConfig(**sidecar["config"])
    return AmaParameters(**arrays), cfg
