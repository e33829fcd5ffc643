"""Core algorithms: the session index, VS-kNN and VMIS-kNN."""

from repro.core.batch import BatchPredictionEngine, LRUResultCache
from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.heaps import BoundedTopK, DAryMinHeap, MostRecentTracker
from repro.core.index import SessionIndex
from repro.core.predictor import (
    BatchMixin,
    SessionRecommender,
    TrainableMixin,
    TrainableRecommender,
    batch_via_loop,
)
from repro.core.scoring import score_items, top_n
from repro.core.types import (
    Click,
    EvolvingSession,
    ItemId,
    ScoredItem,
    SessionId,
    Timestamp,
)
from repro.core.vmis import VMISKNN
from repro.core.vsknn import VSKNN
from repro.core.weights import (
    DECAY_FUNCTIONS,
    MATCH_WEIGHT_FUNCTIONS,
    decay_weights,
    resolve_decay,
    resolve_match_weight,
)

__all__ = [
    "BatchMixin",
    "BatchPredictionEngine",
    "BoundedTopK",
    "Click",
    "ColumnarSessionIndex",
    "DAryMinHeap",
    "DECAY_FUNCTIONS",
    "EvolvingSession",
    "ItemId",
    "LRUResultCache",
    "MATCH_WEIGHT_FUNCTIONS",
    "MostRecentTracker",
    "ScoredItem",
    "SessionId",
    "SessionIndex",
    "SessionRecommender",
    "Timestamp",
    "TrainableMixin",
    "TrainableRecommender",
    "VMISKNN",
    "VMISKNNColumnar",
    "VSKNN",
    "batch_via_loop",
    "decay_weights",
    "resolve_decay",
    "resolve_match_weight",
    "score_items",
    "top_n",
]
