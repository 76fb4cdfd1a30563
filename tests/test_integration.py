"""End-to-end check on a synthetic two-genre world: the attentive model must
recover enough ranking signal to beat the popularity baseline."""

import numpy as np
import pytest

from amarec.baselines import ama_scorer, pop_scorer
from amarec.dataset import Ratings, binarize, temporal_split
from amarec.evaluation import evaluate
from amarec.linalg import randomized_svd
from amarec.model import AmaConfig
from amarec.training import TrainConfig, train


@pytest.fixture(scope="module")
def genre_world():
    rng = np.random.default_rng(0)
    m, n = 120, 60
    genre = rng.integers(0, 2, size=n)
    users, items, times = [], [], []
    for u in range(m):
        taste = rng.choice([0, 1, 2])  # single-genre or mixed
        probs = np.where(genre == 0, 0.8 if taste in (0, 2) else 0.1,
                         0.8 if taste in (1, 2) else 0.1)
        liked = np.argsort(-(rng.random(n) * probs))[: rng.integers(10, 25)]
        for t, j in enumerate(liked):
            users.append(f"u{u:03d}")
            items.append(f"i{j:03d}")
            times.append(1000 + t)
    ratings = Ratings(users, items, np.full(len(users), 5.0), times)
    return temporal_split(binarize(ratings, 3.0))


def test_ama_beats_pop_on_structured_data(genre_world):
    data = genre_world
    cfg = TrainConfig(
        model=AmaConfig(h=8, d=2, kappa=3, alpha=1.0, lam=1e-5, rho=0.3,
                        epochs=120, seed=0),
        batch_size=64,
    )
    V = randomized_svd(data.train, rank=8, power_iters=10, seed=0).right
    params, log = train(data, V, cfg)
    assert log[-1]["objective"] < log[0]["objective"]

    ama = evaluate(ama_scorer(params, V, cfg.model), data, split="test")
    pop = evaluate(pop_scorer(data.train), data, split="test")
    for name in ("R-Precision", "NDCG", "Precision@5", "Precision@10"):
        assert ama.metrics[name]["mean"] > pop.metrics[name]["mean"], name
