"""Interpreting recommendations through attention and mode attribution.

Trains a small two-mode model on the synthetic genre world and then shows
the three explanation views: which observed items each preference mode
attends to for one user, which mode produced each recommendation, the
mode-usage histogram across users, and the corpus-level top-attended items
per mode.

Run:  python3 demos/03_attention_explanations.py
"""

import numpy as np

from amarec.explain import explain_user, mode_top_items, mode_usage, user_explanation_dot
from amarec.linalg import embed_items
from amarec.model import AmaConfig
from amarec.training import train

from importlib import import_module
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
make_events = import_module("01_end_to_end_synthetic").make_events

from amarec.dataset import binarize, temporal_split


def main():
    data = temporal_split(binarize(make_events(), threshold=3.0))
    cfg = AmaConfig(h=8, d=2, kappa=3, alpha=1.0, lam=1e-5, rho=0.3, epochs=120, seed=0,
                    batch_size=64)
    V = embed_items(data.train, cfg)
    params, _ = train(data, V, cfg)

    u = 0
    exp = explain_user(params, V, data.train[u], u, k=5)

    print(f"== user {data.user_ids[u]}: top attended items per mode ==")
    for l, row in enumerate(exp.attention):
        top = np.argsort(-row)[:5]
        pairs = ", ".join(f"{data.item_ids[exp.observed[t]]}:{row[t]:.2f}" for t in top)
        print(f"mode {l}: {pairs}")

    print("\n== recommendations with source-mode attribution ==")
    for j, mode, per_mode in exp.recommendations:
        print(f"{data.item_ids[j]}  <- mode {mode}  "
              f"(per-mode scores {np.round(per_mode, 3)})")

    print("\n== mode-usage histogram over users (top-10 lists) ==")
    hist = mode_usage(params, V, data, k=10)
    for c, count in enumerate(hist.tolist(), start=1):
        print(f"users drawing from exactly {c} mode(s): {count}")
    print(f"share using >= 2 modes: {100 * hist[1:].sum() / hist.sum():.1f}%")

    print("\n== corpus-level top attended items per mode ==")
    for l, rows in enumerate(mode_top_items(params, V, data, n_top=5)):
        print(f"mode {l}:")
        for rank, (j, score, prank, pcount) in enumerate(rows, start=1):
            print(f"  {rank}. {data.item_ids[j]}  attention={score:.2f}  "
                  f"popularity rank {prank} (count {pcount})")

    dot = user_explanation_dot(exp, item_ids=list(data.item_ids))
    print(f"\nDOT graph for external rendering ({len(dot.splitlines())} lines); "
          "first lines:")
    print("\n".join(dot.splitlines()[:4]))


if __name__ == "__main__":
    main()
