"""Analytic gradients vs central finite differences on random small instances."""

import numpy as np
import pytest

from amarec.model import PARAM_NAMES
from oracles import finite_difference, forward_oracle, loss_oracle
from test_model import small_instance, user_objective


def mode_margins(r, obs, params, V, cfg):
    """Gap between the best and second-best per-mode score, per item."""
    per_mode = np.sort(forward_oracle(obs, params, V, cfg.kappa)["per_mode"], axis=0)
    if per_mode.shape[0] == 1:
        return np.full(per_mode.shape[1], np.inf)
    return per_mode[-1] - per_mode[-2]


def well_separated_instance(seed):
    """Random instance kept away from argmax ties so FD stays valid."""
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        cfg, V, params, r, obs = small_instance(
            seed * 1000 + attempt,
            m=int(rng.integers(2, 7)),
            n=int(rng.integers(3, 9)),
            h=int(rng.integers(2, 5)),
            d=int(rng.integers(1, 4)),
            kappa=int(rng.integers(1, 4)),
            alpha=float(rng.uniform(0, 3)),
            lam=float(rng.uniform(0, 0.1)),
        )
        if mode_margins(r, obs, params, V, cfg).min() > 1e-3:
            return cfg, V, params, r, obs
    raise AssertionError("could not build a tie-free instance")


@pytest.mark.parametrize("seed", range(25))
def test_gradients_match_finite_differences(seed):
    cfg, V, params, r, obs = well_separated_instance(seed)
    analytic = user_objective(r, obs, params, V, cfg)[1]

    for name in PARAM_NAMES:
        arr = getattr(params, name)
        fd = finite_difference(lambda: user_objective(r, obs, params, V, cfg)[0], arr,
                               step=1e-5)
        num = np.abs(analytic[name] - fd)
        den = np.maximum(np.abs(fd), np.abs(analytic[name]))
        rel = num / np.maximum(den, 1e-8)
        assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.3e} (seed {seed})"


def test_zero_gradient_at_perfect_fit():
    # lam=0 and exact reconstruction -> stationary point of the squared error
    from test_model import random_params
    from amarec.model import AmaConfig

    cfg = AmaConfig(h=2, d=1, kappa=2, alpha=1.0, lam=0.0, rho=0.0)
    n = 4
    params = random_params(n, cfg, seed=3)
    V = np.random.default_rng(1).standard_normal((n, 2))
    obs = np.array([1, 3])
    r = np.zeros(n)
    r[obs] = 1.0
    u = forward_oracle(obs, params, V, cfg.kappa)["U"][0]
    params.S = np.outer(r, u / (u @ u))
    g = user_objective(r, obs, params, V, cfg)[1]
    for name in PARAM_NAMES:
        assert np.abs(g[name]).max() < 1e-10


def test_gradient_loss_value_matches_loss():
    # the objective the finite differences above run on is the oracle's
    cfg, V, params, r, obs = well_separated_instance(99)
    assert user_objective(r, obs, params, V, cfg)[0] == pytest.approx(
        loss_oracle(r, obs, params, V, cfg), rel=1e-12)
