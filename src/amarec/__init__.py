"""Attentive multi-modal autoencoder for one-class collaborative filtering.

A small numpy/scipy toolkit: dataset preparation (binarization, temporal
splitting), randomized truncated SVD item embeddings, the attentive
multi-modal autoencoder (multi-head attention encoder + maxout decoder)
with exact gradients, POP / PureSVD baselines, a top-N ranking evaluation
harness, and attention-based explanation reports.
"""

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
    Segments,
    attend,
    encode,
    decode_maxout,
    confidence_weights,
    corrupt,
    parameter_count,
)
from amarec.training import TrainConfig, train
from amarec.baselines import pop_scorer, puresvd_scorer
from amarec.evaluation import RankingReport, evaluate
from amarec.explain import explain_user, mode_usage, mode_top_items

__version__ = "0.1.0"
