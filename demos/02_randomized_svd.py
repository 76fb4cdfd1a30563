"""Randomized truncated SVD: accuracy, power iterations, determinism.

Shows how the Gaussian range-finder with power iterations (one QR each,
after a whole R R^T product) converges to the exact spectrum of a sparse
binary matrix, and why the fixed seed plus the sign convention make
embeddings reproducible.

Run:  python3 demos/02_randomized_svd.py
"""

import numpy as np
import scipy.sparse as sp

from amarec.linalg import embed_items, randomized_svd


def main():
    rng = np.random.default_rng(42)
    dense = (rng.random((200, 120)) < 0.08).astype(np.float64)
    R = sp.csr_matrix(dense)
    exact = np.linalg.svd(dense, compute_uv=False)

    print("== effect of power iterations on spectral accuracy (rank 10) ==")
    for gamma in (0, 1, 2, 5, 10):
        res = randomized_svd(R, rank=10, power_iters=gamma, seed=0)
        err = np.abs(res.singular_values - exact[:10]).max()
        print(f"gamma={gamma:2d}: max |sigma - exact| = {err:.2e}")

    print("\n== reconstruction error shrinks with rank ==")
    for h in (2, 5, 10, 20, 40):
        res = randomized_svd(R, rank=h, power_iters=10, seed=0)
        recon = res.left * res.singular_values @ res.right.T
        print(f"h={h:3d}: ||R - UsV'||_F = {np.linalg.norm(dense - recon):.4f}")

    print("\n== determinism and the sign convention ==")
    a = randomized_svd(R, rank=5, power_iters=10, seed=7)
    b = randomized_svd(R, rank=5, power_iters=10, seed=7)
    print("same seed, identical right factors:", np.array_equal(a.right, b.right))
    print("largest-magnitude entry per column is positive:",
          all(a.right[np.argmax(np.abs(a.right[:, j])), j] > 0 for j in range(5)))

    print("\n== item embeddings are the right factor ==")
    V = embed_items(R, h=5, gamma=10, seed=7)
    print("embed_items(h=5, gamma=10, seed=7) equals that right factor:",
          np.array_equal(V, a.right))


if __name__ == "__main__":
    main()
