"""Online serving: stateful pods on a shard ring, rules, variants, guardrails."""

from repro.serving.app import ServingCluster
from repro.serving.http import SerenadeHTTPServer, SerenadeService
from repro.serving.monitoring import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.resilience import (
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    FallbackChain,
    FallbackStage,
    Overloaded,
    ResiliencePolicy,
    ResilientRecommender,
    StageOutcome,
    StaticRecommender,
    hedge_delay_seconds,
    popularity_from_index,
)
from repro.serving.ring import (
    HashRing,
    ReplicationLink,
    ReplicationPolicy,
    RingCoordinator,
)
from repro.serving.rules import (
    BusinessRules,
    exclude_adult,
    exclude_seen_in_session,
    exclude_unavailable,
)
from repro.serving.server import (
    FRONTEND_SLOT_SIZE,
    RecommendationRequest,
    RecommendationResponse,
    RecommendationServer,
)
from repro.serving.session_store import SessionStore, decode_items, encode_items
from repro.serving.variants import ServingVariant, session_view

__all__ = [
    "AdmissionController",
    "BreakerState",
    "BusinessRules",
    "CircuitBreaker",
    "Counter",
    "FallbackChain",
    "FallbackStage",
    "Gauge",
    "HashRing",
    "Histogram",
    "MetricsRegistry",
    "Overloaded",
    "ReplicationLink",
    "ReplicationPolicy",
    "ResiliencePolicy",
    "ResilientRecommender",
    "RingCoordinator",
    "SerenadeHTTPServer",
    "SerenadeService",
    "FRONTEND_SLOT_SIZE",
    "RecommendationRequest",
    "RecommendationResponse",
    "RecommendationServer",
    "ServingCluster",
    "ServingVariant",
    "SessionStore",
    "StageOutcome",
    "StaticRecommender",
    "decode_items",
    "encode_items",
    "exclude_adult",
    "exclude_seen_in_session",
    "exclude_unavailable",
    "hedge_delay_seconds",
    "popularity_from_index",
    "session_view",
]
