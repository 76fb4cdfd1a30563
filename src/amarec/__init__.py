"""Attentive multi-modal autoencoder for one-class collaborative filtering.

A small numpy/scipy toolkit: dataset preparation (binarization, temporal
splitting), randomized truncated SVD item embeddings, the attentive
multi-modal autoencoder (multi-head attention encoder + maxout decoder)
with exact gradients, POP / PureSVD baselines, a top-N ranking evaluation
harness, and attention-based explanation reports.
"""

import ctypes
import os


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
    confidence_weights,
    corrupt,
    parameter_count,
)
from amarec.training import train
from amarec.baselines import pop_scorer, puresvd_scorer
from amarec.evaluation import RankingReport, evaluate
from amarec.explain import explain_user, mode_usage, mode_top_items

__version__ = "0.1.0"
