"""Independent reference implementations used only to check the library.

Everything here is written as plain loops (or a textbook algorithm) and
deliberately shares no code path with the package under test.
"""

import csv
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from amarec.dataset import ConfigError, ParseError, SplitDataset
from conftest import event_ids


def jacobi_singular_values(A, max_sweeps=100, tol=1e-13):
    """Singular values via one-sided Jacobi rotations; for small dense matrices."""
    A = np.array(A, dtype=np.float64)
    if A.shape[0] < A.shape[1]:
        A = A.T
    U = A.copy()
    n = U.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(U[:, p] @ U[:, q])
                app = float(U[:, p] @ U[:, p])
                aqq = float(U[:, q] @ U[:, q])
                denom = math.sqrt(app * aqq) + 1e-300
                off = max(off, abs(apq) / denom)
                if abs(apq) <= tol * denom:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                up = c * U[:, p] - s * U[:, q]
                uq = s * U[:, p] + c * U[:, q]
                U[:, p], U[:, q] = up, uq
        if off < tol:
            break
    sv = np.sqrt((U * U).sum(axis=0))
    return np.sort(sv)[::-1]


def randomized_svd_oracle(R, rank, power_iters=10, seed=0):
    """Randomized SVD with a QR after each half of every power iteration,
    on the tall side too: (U, s, V) under the library's sign convention."""
    m, n = R.shape
    k = min(rank + 10, min(m, n))
    omega = np.random.default_rng(seed).standard_normal((n, k))
    Q, _ = np.linalg.qr(np.asarray(R @ omega))
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(np.asarray(R.T @ Q))
        Q, _ = np.linalg.qr(np.asarray(R @ Z))
    Ub, s, Vt = np.linalg.svd(np.asarray(R.T @ Q).T, full_matrices=False)
    U, s, V = (Q @ Ub)[:, :rank], s[:rank], Vt[:rank].T.copy()
    for j in range(rank):
        if V[np.argmax(np.abs(V[:, j])), j] < 0:
            V[:, j] = -V[:, j]
            U[:, j] = -U[:, j]
    return U, s, V


def matrix_hash_oracle(mat):
    """SHA-256 of the shape and the lexsorted (row, col) of every stored entry."""
    coo = mat.tocoo()
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", *mat.shape))
    order = np.lexsort((coo.col, coo.row))
    h.update(coo.row[order].astype(np.int64).tobytes())
    h.update(coo.col[order].astype(np.int64).tobytes())
    return h.hexdigest()


def loss_oracle(r, mask_obs, params, V, cfg):
    """Straight-line scalar re-implementation of the per-user objective."""
    n, h = params.S.shape
    d, kappa = params.Q.shape
    mask = list(mask_obs)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    keys = {j: [dot(V[j], params.W_k[:, k]) for k in range(kappa)] for j in mask}
    vals = {j: [dot(V[j], params.W_v[:, a]) for a in range(h)] for j in mask}

    U = []
    for l in range(d):
        weights = [math.exp(dot(params.Q[l], keys[j]) / math.sqrt(kappa)) for j in mask]
        Z = sum(weights)
        u = [params.B[l, a] for a in range(h)]
        for w, j in zip(weights, mask):
            for a in range(h):
                u[a] += (w / Z) * vals[j][a]
        U.append(u)

    total = 0.0
    for j in range(n):
        score = max(dot(U[l], params.S[j]) for l in range(d))
        c = 1.0 + cfg.alpha * math.log(1.0 + r[j])
        total += c * (r[j] - score) ** 2
    reg = cfg.lam * sum(params.S[j, a] ** 2 for j in range(n) for a in range(h))
    return total + reg


def forward_oracle(mask_obs, params, V, kappa):
    """Per-user forward pass in plain numpy, one product per stage.

    Returns a dict with the attention ``A`` (d x n_obs, a softmax over the
    observed items per mode), the modes ``U`` (d x h), the per-mode scores
    (d x n), and the maxout ``scores`` and ``mode_of`` (argmax, lowest index
    on ties) over items.
    """
    obs = np.asarray(mask_obs, dtype=np.intp)
    K, Vt = V @ params.W_k, V @ params.W_v
    logits = params.Q @ K[obs].T / math.sqrt(kappa)   # d x n_obs
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    A = w / w.sum(axis=1, keepdims=True)
    U = A @ Vt[obs] + params.B                         # d x h
    per_mode = U @ params.S.T                          # d x n
    return {"A": A, "U": U, "per_mode": per_mode,
            "scores": per_mode.max(axis=0), "mode_of": per_mode.argmax(axis=0)}


def corrupt_oracle(rows, rho, rng):
    """Denoising corruption as a per-user loop over a list of item-index
    arrays: each row, in order, draws one uniform per item and keeps the items
    whose draw is >= rho; an empty row draws nothing. Every rho draws, 0
    included, so the stream after the loop does not depend on rho."""
    kept = []
    for obs in rows:
        obs = np.asarray(obs, dtype=np.intp)
        kept.append(obs[rng.random(obs.size) >= rho] if obs.size else obs)
    return kept


def gradients_oracle(r, mask_obs, params, V, cfg):
    """Per-user forward and exact backward pass of the data term, in plain numpy.

    Maxout routes each item's gradient to its argmax mode (lowest index on
    ties); the softmax Jacobian covers the observed items only. Returns the
    gradients keyed by parameter name plus the data loss under ``"loss"``.
    """
    obs = np.asarray(mask_obs, dtype=np.intp)
    r = np.asarray(r, dtype=np.float64)
    n = params.S.shape[0]
    sk = math.sqrt(cfg.kappa)
    fwd = forward_oracle(obs, params, V, cfg.kappa)
    A, U, mode_of = fwd["A"], fwd["U"], fwd["mode_of"]
    K_obs, Vt_obs, V_obs = V[obs] @ params.W_k, V[obs] @ params.W_v, V[obs]
    c = 1.0 + cfg.alpha * np.log1p(r)
    err = r - fwd["scores"]

    g = -2.0 * c * err
    dS = g[:, None] * U[mode_of]
    one_hot = np.zeros(fwd["per_mode"].shape)
    one_hot[mode_of, np.arange(n)] = 1.0
    dU = one_hot @ (g[:, None] * params.S)
    dA = dU @ Vt_obs.T
    dLogit = A * (dA - np.sum(A * dA, axis=1, keepdims=True))
    return {
        "W_k": V_obs.T @ (dLogit.T @ params.Q / sk),
        "W_v": V_obs.T @ (A.T @ dU),
        "Q": dLogit @ K_obs / sk,
        "B": dU,
        "S": dS,
        "loss": float(np.dot(c, err * err)),
    }


def enumerate_metrics(ranked, relevant, k):
    """Hand-enumeration of the ranking metrics for one user."""
    ranked = list(ranked)
    relevant = set(relevant)
    hits_at = [1 if item in relevant else 0 for item in ranked]

    precision = sum(hits_at[:k]) / k
    recall = sum(hits_at[:k]) / len(relevant)

    ap = 0.0
    seen = 0
    for i in range(min(k, len(ranked))):
        if hits_at[i]:
            seen += 1
            ap += seen / (i + 1)
    ap /= min(k, len(relevant))

    r = len(relevant)
    rprec = sum(hits_at[:r]) / r

    dcg = sum(1.0 / math.log2(i + 2) for i in range(len(ranked)) if hits_at[i])
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(len(ranked), len(relevant))))
    return {
        "precision": precision,
        "recall": recall,
        "ap": ap,
        "r_precision": rprec,
        "ndcg": dcg / idcg,
    }


def finite_difference(f, arr, step=1e-5):
    """Central finite differences of a scalar function over an array in place."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        plus = f()
        flat[i] = orig - step
        minus = f()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * step)
    return g


# ---------------------------------------------------------------------------
# The list-of-events ingestion path: one RatingEvent per line, per-user lists,
# pair sets. The reference for dataset's columnar parse_ratings, binarize,
# temporal_split and save_split, which must write byte-identical files and
# report the same (line, message) for a faulty input.


@dataclass(frozen=True)
class RatingEvent:
    user_id: str
    item_id: str
    rating: float
    timestamp: int


_FORMATS = ("movielens-dat", "amazon-csv")


def parse_ratings_oracle(path, format, amazon_columns="item,user,rating,timestamp"):
    """Parse a raw rating file into a list of RatingEvent, input order kept."""
    if format not in _FORMATS:
        raise ConfigError(f"unknown format {format!r}, expected one of {_FORMATS}")
    events = []
    if format == "movielens-dat":
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("::")
                if len(parts) != 4:
                    raise ParseError(
                        f"expected 4 '::'-separated fields, got {len(parts)}", lineno
                    )
                events.append(_make_event(parts[0], parts[1], parts[2], parts[3], lineno))
    else:
        cols = [c.strip() for c in amazon_columns.split(",")]
        if sorted(cols) != ["item", "rating", "timestamp", "user"]:
            raise ConfigError(f"bad amazon column order {amazon_columns!r}")
        pos = {name: i for i, name in enumerate(cols)}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader, start = csv.reader(fh), 1
            for row in reader:   # a record starts on the line after the previous one ends
                lineno, start = start, reader.line_num + 1
                if not row:
                    continue
                if len(row) != 4:
                    raise ParseError(f"expected 4 CSV fields, got {len(row)}", lineno)
                events.append(
                    _make_event(
                        row[pos["user"]], row[pos["item"]], row[pos["rating"]],
                        row[pos["timestamp"]], lineno,
                    )
                )
    return events


def _make_event(user, item, rating, timestamp, lineno):
    try:
        r = float(rating)
        ts = int(timestamp)   # "1.7" is an error, not 1
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    if not math.isfinite(r):
        raise ParseError(f"non-finite rating {rating!r}", lineno)
    if ts < 0:
        raise ParseError(f"negative timestamp {timestamp!r}", lineno)
    return RatingEvent(user_id=user, item_id=item, rating=r, timestamp=ts)


def binarize_oracle(events, threshold):
    """Keep events with rating strictly above ``threshold``; set ratings to 1."""
    if not math.isfinite(threshold) and threshold > 0:
        raise ConfigError("threshold must not be +inf")
    return [
        RatingEvent(e.user_id, e.item_id, 1.0, e.timestamp)
        for e in events
        if e.rating > threshold
    ]


def temporal_split_oracle(events, fractions=(0.5, 0.2, 0.3)):
    """Per-user temporal split into train/validation/test matrices."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ConfigError(f"bad fractions {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    if not events:
        raise ConfigError("empty event list")

    by_user = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)

    f1, f2, _ = fractions
    train_ev, val_ev, test_ev = [], [], []
    for uid, evs in by_user.items():
        evs.sort(key=lambda e: (e.timestamp, e.item_id))
        n = len(evs)
        n_train = math.floor(f1 * n)
        n_val = math.floor((f1 + f2) * n) - n_train
        if n_train == 0:
            continue
        train_ev.extend(evs[:n_train])
        val_ev.extend(evs[n_train : n_train + n_val])
        test_ev.extend(evs[n_train + n_val :])

    if not train_ev:
        raise ConfigError("empty dataset: no user retains a train event")

    item_ids = tuple(sorted({e.item_id for e in train_ev}))
    item_index = {v: j for j, v in enumerate(item_ids)}
    user_ids = tuple(sorted({e.user_id for e in train_ev}))
    user_index = {u: i for i, u in enumerate(user_ids)}

    # validation/test events touching unseen items vanish with the item drop
    val_ev = [e for e in val_ev if e.item_id in item_index]
    test_ev = [e for e in test_ev if e.item_id in item_index]

    return SplitDataset(
        train=build_matrix(train_ev, user_index, item_index),
        validation=build_matrix(val_ev, user_index, item_index),
        test=build_matrix(test_ev, user_index, item_index),
        user_ids=user_ids,
        item_ids=item_ids,
    )


def temporal_split_lexsort_oracle(ratings, fractions=(0.5, 0.2, 0.3)):
    """temporal_split as it read ``str`` ids: each id column coded by a dict
    over its sorted distinct ids, the events ordered by one ``np.lexsort`` of
    (user, timestamp, item), every user's run cut at its floor offsets and
    each part's distinct cells kept by ``np.unique``. Fractions are taken as
    valid; a log with no train event raises ConfigError."""
    def codes(ids):
        distinct = sorted(set(ids))
        index = {v: j for j, v in enumerate(distinct)}
        return distinct, np.array([index[v] for v in ids], dtype=np.int64)

    user_ids, user = codes(event_ids(ratings, "user").tolist())
    item_ids, item = codes(event_ids(ratings, "item").tolist())
    order = np.lexsort((item, ratings.timestamp, user))
    user, item = user[order], item[order]
    start = np.flatnonzero(np.r_[True, user[1:] != user[:-1]])
    count = np.diff(np.r_[start, user.size])
    rank = np.arange(user.size) - np.repeat(start, count)
    f1, f2, _ = fractions
    part = ((rank >= np.repeat(np.floor(f1 * count), count)).astype(np.int8)
            + (rank >= np.repeat(np.floor((f1 + f2) * count), count)))
    if not (part == 0).any():
        raise ConfigError("empty dataset: no user retains a train event")
    kept_users = np.bincount(user[part == 0], minlength=len(user_ids)) > 0
    kept_items = np.bincount(item[part == 0], minlength=len(item_ids)) > 0
    shape = (int(kept_users.sum()), int(kept_items.sum()))
    keep = kept_users[user] & kept_items[item]
    row, col = np.cumsum(kept_users)[user] - 1, np.cumsum(kept_items)[item] - 1
    mats = []
    for s in range(3):
        cells = np.unique(row[keep & (part == s)] * shape[1] + col[keep & (part == s)])
        mat = sp.csr_matrix((np.ones(cells.size), (cells // shape[1], cells % shape[1])),
                            shape=shape)
        mat.sort_indices()
        mats.append(mat)
    return SplitDataset(*mats, user_ids=tuple(u for u, k in zip(user_ids, kept_users) if k),
                        item_ids=tuple(i for i, k in zip(item_ids, kept_items) if k))


def build_matrix(events, user_index, item_index):
    """Binary CSR matrix from events; duplicate pairs collapse to a single 1."""
    m, n = len(user_index), len(item_index)
    pairs = set()
    for e in events:
        if e.user_id not in user_index:
            raise KeyError(f"unknown user id {e.user_id!r}")
        if e.item_id not in item_index:
            raise KeyError(f"unknown item id {e.item_id!r}")
        pairs.add((user_index[e.user_id], item_index[e.item_id]))
    if not pairs:
        return sp.csr_matrix((m, n), dtype=np.float64)
    rows, cols = zip(*sorted(pairs))
    data = np.ones(len(rows), dtype=np.float64)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(m, n))
    mat.sort_indices()
    return mat


def _matrix_pairs(mat):
    coo = mat.tocoo()
    return sorted(zip(coo.row.tolist(), coo.col.tolist()))


def split_content_hash(data):
    """SHA-256 over the hex ``matrix_hash_oracle`` digests of the train,
    validation and test matrices, in that order; split identity key."""
    h = hashlib.sha256()
    for mat in (data.train, data.validation, data.test):
        h.update(matrix_hash_oracle(mat).encode("ascii"))
    return h.hexdigest()


def save_split_oracle(data, out_dir, threshold=None, fractions=(0.5, 0.2, 0.3)):
    """Write train/validation/test CSVs (user_idx,item_idx) plus a JSON sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    sidecar = {
        "num_users": data.shape[0],
        "num_items": data.shape[1],
        "user_ids": list(data.user_ids),
        "item_ids": list(data.item_ids),
        "threshold": threshold,
        "fractions": list(fractions),
        "counts": {
            "train": int(data.train.nnz),
            "validation": int(data.validation.nnz),
            "test": int(data.test.nnz),
        },
        "content_hash": split_content_hash(data),
    }
    for name, mat in (("train", data.train), ("validation", data.validation), ("test", data.test)):
        with open(os.path.join(out_dir, f"{name}.csv"), "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user_idx", "item_idx"])
            for u, j in _matrix_pairs(mat):
                w.writerow([u, j])
    with open(os.path.join(out_dir, "split.json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
