"""Acceptance suite: one test per criterion, one PASS line printed per pass.

Criteria that need the real MovieLens-1M rating log (2, 3, 10) are gated on
the AMAREC_ML1M_RATINGS environment variable pointing at ``ratings.dat``;
they skip otherwise since the dataset cannot be redistributed or downloaded
here. Criterion 3 trains the full 300-epoch configuration and takes hours
in pure numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amarec.baselines import ama_scorer, pop_scorer
from amarec.dataset import binarize, parse_ratings, temporal_split
from amarec.evaluation import evaluate
from amarec.explain import mode_usage
from amarec.linalg import embed_items, randomized_svd
from amarec.model import (
    AmaConfig,
    PARAM_NAMES,
    Segments,
    argmax_mode,
    attend,
    decode_maxout,
    encode,
    keys_values,
    parameter_count,
)
from amarec.training import train
from conftest import csr_rows, synthetic_events, write_movielens_file
from oracles import enumerate_metrics, finite_difference, jacobi_singular_values
from test_gradients import well_separated_instance
from test_metrics import metrics_of
from test_model import padded_gemm, small_instance, user_objective

ML1M_ENV = "AMAREC_ML1M_RATINGS"


def passed(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="session")
def ml1m_split(tmp_path_factory):
    path = os.environ.get(ML1M_ENV)
    if not path:
        pytest.skip(f"set {ML1M_ENV}=/path/to/ml-1m/ratings.dat to run this criterion")
    events = binarize(parse_ratings(path, "movielens-dat"), threshold=3.0)
    return temporal_split(events, (0.5, 0.2, 0.3))


@pytest.fixture(scope="session")
def ml1m_model(ml1m_split):
    cfg = AmaConfig(h=40, d=3, kappa=3, alpha=1.0, lam=1e-5, rho=0.3, epochs=300, seed=0)
    V = embed_items(ml1m_split.train, cfg)   # cfg's h=40, gamma=10 and seed=0
    params, _ = train(ml1m_split, V, cfg)
    return params, V, cfg


def test_criterion_1_parameter_count_identity():
    cfg = AmaConfig(h=40, d=3, kappa=3)
    n = 3533
    assert parameter_count(n, cfg) == 143_169
    assert n * 40 == 141_320 and 40 * 40 == 1_600 and 3 * 40 == 120
    assert (40 + 3) * 3 == 129
    # kappa=3 is the only positive integer with (h+d)*kappa == 129 given h=40, d=3
    solutions = [k for k in range(1, 1000) if 43 * k == 129]
    assert solutions == [3]
    passed(1, "count(3533, h=40, d=3, kappa=3) == 143,169; kappa=3 unique")


def test_criterion_2_pop_rprecision_ml1m(ml1m_split):
    report = evaluate(pop_scorer(ml1m_split.train), ml1m_split, split="test")
    got = report.metrics["R-Precision"]["mean"]
    assert abs(got - 0.0736) <= 0.0075, f"POP R-Precision {got:.4f} outside 7.36% +/- 0.75pp"
    passed(2, f"POP test R-Precision {100 * got:.2f}% within 7.36% +/- 0.75pp")


def test_criterion_3_ama_ml1m_desk_scale(ml1m_split, ml1m_model):
    params, V, cfg = ml1m_model
    ama_report = evaluate(ama_scorer(params, V), ml1m_split, split="test")
    pop_report = evaluate(pop_scorer(ml1m_split.train), ml1m_split, split="test")
    rp = ama_report.metrics["R-Precision"]["mean"]
    nd = ama_report.metrics["NDCG"]["mean"]
    assert rp >= 0.090, f"AMA R-Precision {rp:.4f} < 9.0%"
    assert nd >= 0.165, f"AMA NDCG {nd:.4f} < 16.5%"
    for name in ["R-Precision", "NDCG", "Precision@5", "Precision@10", "Precision@20"]:
        assert ama_report.metrics[name]["mean"] > pop_report.metrics[name]["mean"], (
            f"AMA does not beat POP on {name}"
        )
    passed(3, f"AMA R-Precision {100 * rp:.2f}%, NDCG {100 * nd:.2f}%, beats POP")


def test_criterion_4_gradient_suite():
    checked = 0
    for seed in range(22):
        cfg, V, params, r, obs = well_separated_instance(seed)
        analytic = user_objective(r, obs, params, V, cfg)[1]
        for name in PARAM_NAMES:
            arr = getattr(params, name)
            fd = finite_difference(lambda: user_objective(r, obs, params, V, cfg)[0], arr,
                                   step=1e-5)
            rel = np.abs(analytic[name] - fd) / np.maximum(
                np.maximum(np.abs(fd), np.abs(analytic[name])), 1e-8)
            assert rel.max() < 1e-4, f"{name} seed {seed}: {rel.max():.2e}"
        checked += 1
    assert checked >= 20
    passed(4, f"{checked} random instances, all gradients within 1e-4 of FD")


def test_criterion_5_attention_suite():
    rng = np.random.default_rng(0)
    for trial in range(20):
        cfg, V, params, r, obs = small_instance(trial + 300)
        segs = Segments.of(csr_rows([obs], V.shape[0]))
        K = keys_values(V, params)
        A = attend(K[obs], params.Q, segs)   # n_obs x d
        # normalization to 1 +/- 1e-9 over observed items
        assert np.abs(A.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.all(A >= 0)
        # mask sufficiency: off-mask embedding perturbations leave the
        # encoding bit-identical (off-mask weights are exact zeros by
        # construction: unobserved items never enter the computation)
        U1 = encode(A, V[obs], segs, params.W_v, params.B)[1]
        V2 = V.copy()
        outside = np.setdiff1d(np.arange(V.shape[0]), obs)
        V2[outside] = rng.standard_normal((outside.size, V.shape[1])) * 50
        K2 = keys_values(V2, params)
        A2 = attend(K2[obs], params.Q, segs)
        U2 = encode(A2, V2[obs], segs, params.W_v, params.B)[1]
        assert np.array_equal(U1, U2)
    passed(5, "normalization 1e-9, exact off-mask zeros, mask sufficiency bit-exact")


def test_criterion_6_maxout_suite():
    for trial in range(20):
        rng = np.random.default_rng(trial + 600)
        d, h, n = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(3, 9))
        U = rng.standard_normal((1, d, h))
        S = rng.standard_normal((n, h))
        decoded, per_modes = decode_maxout(U, S)
        scores, mode_of = decoded[0], argmax_mode(per_modes, decoded)[0]
        per_mode = padded_gemm(U, S.T)[0]   # the block GEMM the decode maximizes over
        assert np.array_equal(per_modes[0], per_mode)
        np.testing.assert_allclose(per_mode, U[0] @ S.T, rtol=1e-12, atol=0)
        assert np.all(scores[None, :] >= per_mode - 1e-15)
        for j in range(n):
            assert per_mode[mode_of[j], j] == scores[j]
    # d=1 reduces to the plain dot-product decoder
    rng = np.random.default_rng(1)
    U = rng.standard_normal((1, 1, 4))
    S = rng.standard_normal((6, 4))
    np.testing.assert_array_equal(decode_maxout(U, S)[0][0], padded_gemm(U, S.T)[0, 0])
    # deterministic lowest-index tie-break
    U_tie = np.array([[[2.0, 0.0], [2.0, 0.0]]])
    decoded, per_modes = decode_maxout(U_tie, np.array([[1.0, 5.0]]))
    assert argmax_mode(per_modes, decoded)[0, 0] == 0
    passed(6, "dominance, d=1 dot-product reduction, deterministic tie-break")


def test_criterion_7_metric_oracle_equivalence():
    # worked example
    ranked = np.array([10, 11, 12, 13, 14])
    relevant = {10, 13, 99}
    worked = metrics_of(ranked, relevant, 5)
    assert worked["precision"] == 0.4
    assert worked["recall"] == 2 / 3
    assert worked["ap"] == 0.5
    assert abs(worked["ndcg"] - 0.6714) < 2e-4
    # bit-exact equivalence with the enumeration oracle on small fixtures
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        ranked = rng.permutation(n)
        relevant = set(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                  replace=False).tolist())
        k = int(rng.integers(1, 6))
        assert metrics_of(ranked, relevant, k) == enumerate_metrics(ranked, relevant, k)
    passed(7, "worked example and 50 fixtures bit-exact against the oracle")


def test_criterion_8_svd_oracle():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(2, 33, size=2))
        if rng.random() < 0.5:
            R = (rng.random((m, n)) < 0.4).astype(np.float64)
            if not R.any():
                R[0, 0] = 1.0
        else:
            R = rng.standard_normal((m, n))
        rank = int(min(m, n))
        res = randomized_svd(R, rank=rank, power_iters=12, seed=seed + 77)
        oracle = jacobi_singular_values(R)[:rank]
        assert np.abs(res.singular_values - oracle).max() <= 1e-6
        eye = np.eye(rank)
        assert np.abs(res.right.T @ res.right - eye).max() <= 1e-8
    passed(8, "12 matrices <=32x32: singular values within 1e-6, orthonormal to 1e-8")


def test_criterion_9_thread_count_reproducibility(tmp_path):
    ratings = tmp_path / "ratings.dat"
    write_movielens_file(ratings, synthetic_events(m=30, n=20, per_user=14, seed=13))
    data_dir = tmp_path / "data"
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(args, threads=1):
        env = {**os.environ, "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "amarec.cli", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    run(["prep", "--input", str(ratings), "--format", "movielens-dat",
         "--threshold", "2", "--out", str(data_dir)])
    outputs = {}
    for threads in (1, 4):
        model = tmp_path / f"model_t{threads}.bin"
        report = tmp_path / f"report_t{threads}.json"
        fast = ["--set", "h=4", "--set", "d=2", "--set", "kappa=2",
                "--set", "epochs=5", "--set", "gamma=3"]
        run(["train", "--data", str(data_dir), "--out", str(model), *fast], threads)
        run(["evaluate", "--data", str(data_dir), "--model", str(model),
             "--out", str(report), *fast], threads)
        outputs[threads] = (model.read_bytes(), report.read_bytes())
    assert outputs[1][0] == outputs[4][0], "model files differ across BLAS threads"
    assert outputs[1][1] == outputs[4][1], "reports differ across BLAS threads"
    passed(9, "model files and reports bit-identical for OPENBLAS_NUM_THREADS 1 vs 4")


def test_criterion_10_mode_usage_sanity(ml1m_split, ml1m_model):
    params, V, cfg = ml1m_model
    hist = mode_usage(params, V, ml1m_split, k=10)
    multi = hist[1:].sum() / hist.sum()
    assert multi > 0.50, f"only {100 * multi:.1f}% of users use >= 2 modes"
    passed(10, f"{100 * multi:.1f}% of users draw top-10 from >= 2 modes")
