"""Attentive multi-modal autoencoder for one-class collaborative filtering.

A small numpy/scipy toolkit: dataset preparation (binarization, temporal
splitting), randomized truncated SVD item embeddings, the attentive
multi-modal autoencoder (multi-head attention encoder + maxout decoder)
with exact gradients, POP / PureSVD baselines, a top-N ranking evaluation
harness, and attention-based explanation reports.
"""

import ctypes
import os
from pathlib import Path


def _keep_freed_memory():
    """Stop glibc from handing freed heap memory back to the OS.

    Each training step and each ranked block frees and reallocates the same
    few-MB temporaries. glibc's default thresholds adapt to the allocation
    history, so whether those temporaries came back from the heap or as
    freshly zeroed pages changed with what had run before in the process:
    ``train`` took about 4,500 or about 11,300 minor page faults per command
    on the same inputs, and the same 25-user training step took a median of
    7.1 ms in some processes and 9.6 ms in others (2 vCPUs, one BLAS thread).
    A fixed mmap threshold (32 MiB, glibc's largest) and trim threshold
    (256 MiB) keep them in the heap: a fresh ``train`` takes no page faults
    after its first epoch. Arrays of 32 MiB or more are still mapped anew
    each time. Other C libraries are left alone. It runs once, when
    ``amarec`` is imported, so library callers and the CLI get the same
    policy."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):   # no confstr, or not glibc
        glibc = None
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


_keep_freed_memory()


def _one_blas_thread():
    """Set numpy's BLAS to one thread, for the whole process.

    The decode and its backward run one fixed-shape GEMM per block of users
    (``model.Forward.block``), which gives a user the same bytes anywhere in
    a block only at one thread. numpy's wheels ship scipy-openblas in
    ``numpy.libs`` (``numpy/.dylibs`` on macOS); a plain OpenBLAS that numpy
    links is reached through ``numpy.linalg``'s extension. Another BLAS (MKL,
    Accelerate) has neither setter and keeps its thread count. Like
    ``_keep_freed_memory``, it runs once, when ``amarec`` is imported."""
    import numpy
    import numpy.linalg._umath_linalg as linalg_ext

    root = Path(numpy.__file__).parent
    for path in (*sorted(root.parent.glob("numpy.libs/*openblas*")),
                 *sorted(root.glob(".dylibs/*openblas*")), linalg_ext.__file__):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                setter(1)
                return


_one_blas_thread()

from amarec.dataset import (
    Ratings,
    SplitDataset,
    parse_ratings,
    binarize,
    temporal_split,
    save_split,
    load_split,
)
from amarec.linalg import SvdResult, randomized_svd, embed_items
from amarec.model import (
    AmaConfig,
    AmaParameters,
    init_params,
    keys_values,
    Forward,
    Segments,
    attend,
    encode,
    decode_maxout,
    argmax_mode,
    corrupt,
    parameter_count,
)
from amarec.training import train
from amarec.baselines import pop_scorer, puresvd_scorer
from amarec.evaluation import RankingReport, evaluate
from amarec.explain import explain_user, mode_usage, mode_top_items

__version__ = "0.1.0"
