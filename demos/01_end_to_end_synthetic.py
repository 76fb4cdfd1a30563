"""End-to-end walkthrough on a synthetic rating log.

Generates a two-genre world where some users like one genre and some like
both, then runs the whole pipeline: binarize, temporal split, SVD item
embeddings, training, and a side-by-side evaluation against the POP and
PureSVD baselines.

Run:  python3 demos/01_end_to_end_synthetic.py
"""

import numpy as np

from amarec.baselines import ama_scorer, pop_scorer, puresvd_scorer
from amarec.dataset import Ratings, binarize, temporal_split
from amarec.evaluation import evaluate
from amarec.linalg import embed_items
from amarec.model import AmaConfig, parameter_count
from amarec.training import train


def make_events(m=120, n=60, seed=0):
    """A rating log as Ratings columns: user and item ids, ratings, timestamps."""
    rng = np.random.default_rng(seed)
    genre = rng.integers(0, 2, size=n)
    users, items, times = [], [], []
    for u in range(m):
        taste = rng.choice([0, 1, 2])  # genre 0, genre 1, or both
        probs = np.where(genre == 0, 0.8 if taste in (0, 2) else 0.1,
                         0.8 if taste in (1, 2) else 0.1)
        liked = np.argsort(-(rng.random(n) * probs))[: rng.integers(10, 25)]
        users += [f"u{u:03d}"] * liked.size
        items += [f"i{j:03d}" for j in liked]
        times += range(1000, 1000 + liked.size)
    return Ratings(users, items, np.full(len(users), 5.0), times)


def main():
    print("== preparing data ==")
    data = temporal_split(binarize(make_events(), threshold=3.0))
    m, n = data.shape
    print(f"{m} users x {n} items; "
          f"{data.train.nnz} train / {data.validation.nnz} val / {data.test.nnz} test")

    cfg = AmaConfig(h=8, d=2, kappa=3, alpha=1.0, lam=1e-5, rho=0.3, epochs=120, seed=0,
                    batch_size=64)   # every setting of the run, in one config

    print("\n== item embeddings (randomized SVD of the train matrix) ==")
    V = embed_items(data.train, cfg)   # cfg's h, gamma and seed
    print(f"{V.shape[0]} items x h={V.shape[1]}; orthonormal columns: "
          f"{np.allclose(V.T @ V, np.eye(V.shape[1]))}")

    print("\n== training (2 preference modes, denoising corruption 0.3) ==")
    print(f"trainable parameters: {parameter_count(n, cfg)}")
    params, log = train(data, V, cfg)
    print(f"objective: epoch 0 = {log[0]['objective']:.3f}, "
          f"epoch {log[-1]['epoch']} = {log[-1]['objective']:.3f}")

    print("\n== test-split evaluation ==")
    scorers = {
        "POP": pop_scorer(data.train),
        "PureSVD": puresvd_scorer(V),   # r V V^T with AMA's item embeddings
        "AMA": ama_scorer(params, V),
    }
    cols = ["R-Precision", "NDCG", "Precision@5", "Recall@5", "MAP@5"]
    print(f"{'model':>8s} " + " ".join(f"{c:>12s}" for c in cols))
    for name, scorer in scorers.items():
        rep = evaluate(scorer, data, split="test")
        print(f"{name:>8s} " + " ".join(
            f"{100 * rep.metrics[c]['mean']:11.2f}%" for c in cols))


if __name__ == "__main__":
    main()
