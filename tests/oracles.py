"""Independent reference implementations used only to check the library.

Everything here is written as plain loops (or a textbook algorithm) and
deliberately shares no code path with the package under test.
"""

import math

import numpy as np


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
