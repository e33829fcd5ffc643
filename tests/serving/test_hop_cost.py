"""A deterministic cost guard for the hop: what a cached request calls.

The hop is every layer between the payload parser and the result cache
(admission, the ring, the pod's two steps, the guardrail chain). Its time
drifts with the machine; the number of Python functions of ``repro`` a
request enters does not. Each scenario serves cached ``/v1/recommend``
requests in-process through :meth:`SerenadeService.recommend` under
``sys.setprofile`` and counts, per request, the calls into functions whose
code lives under ``repro/``. List, set and dict comprehensions are left
out: CPython 3.12 runs them inline, earlier versions as calls of their own.

The bounds are the counts of the one-pass request path, so a layer or a
check that creeps back into the path fails here, not as a timing
somewhere else.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.core.index import SessionIndex
from repro.data.synthetic import generate_clickstream
from repro.serving.app import ServingCluster
from repro.serving.http import SerenadeService
from repro.serving.resilience import ResiliencePolicy

#: Calls into ``repro`` per cached request without consent (no store
#: write), and with consent (the session read-modify-write included).
ANON_BOUND = 26
CONSENTED_BOUND = 33

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
INLINED_IN_312 = {"<listcomp>", "<setcomp>", "<dictcomp>"}
ITEMS = range(1, 31)


def payload(session_id: str, item_id: int, consent: bool) -> dict:
    return {
        "session_id": session_id,
        "item_id": item_id,
        "consent": consent,
        "variant": "serenade-hist",
        "count": 21,
    }


def calls_per_request(service: SerenadeService, payloads: list[dict]) -> list[int]:
    """Calls into ``repro`` made by each request, in order."""
    counts = []
    current = 0

    def profile(frame, event, _arg):
        nonlocal current
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith(REPRO_DIR) and code.co_name not in INLINED_IN_312:
            current += 1

    for body in payloads:
        current = 0
        sys.setprofile(profile)
        try:
            service.recommend(body)
        finally:
            sys.setprofile(None)
        counts.append(current)
    return counts


@pytest.fixture(scope="module")
def service():
    log = generate_clickstream(num_sessions=600, num_items=80, days=4, seed=26)
    index = SessionIndex.from_clicks(log, max_sessions_per_item=100)
    # A budget no box stall can burn: a degraded answer would take
    # another path and count differently.
    cluster = ServingCluster.with_index(
        index,
        num_pods=2,
        m=100,
        k=50,
        cache_size=1024,
        resilience=ResiliencePolicy(budget_ms=60_000.0),
    )
    served = SerenadeService(cluster)
    for item in ITEMS:  # every single-item view, in every pod's cache
        warmed: set[str] = set()
        number = 0
        while warmed != set(cluster.pods):
            key = f"warm-{item}-{number}"
            warmed.add(cluster.route_live(key))
            served.recommend(payload(key, item, False))
            number += 1
    # The store's codec for a one-item session is built on first use.
    served.recommend(payload("warm-consented", ITEMS[0], True))
    yield served
    cluster.close()


def test_cached_request_without_consent(service):
    counts = calls_per_request(
        service, [payload(f"anon-{n}", item, False) for n, item in enumerate(ITEMS)]
    )
    assert len(set(counts)) == 1, counts  # the same path for every request
    assert counts[0] <= ANON_BOUND


def test_cached_request_with_consent(service):
    # A fresh session's first view is its one item, already cached.
    counts = calls_per_request(
        service, [payload(f"new-{n}", item, True) for n, item in enumerate(ITEMS)]
    )
    assert len(set(counts)) == 1, counts
    assert counts[0] <= CONSENTED_BOUND


def test_every_request_was_a_cache_hit(service):
    before = service.cluster.cache_info()["misses"]
    calls_per_request(service, [payload("probe", 1, False)])
    assert service.cluster.cache_info()["misses"] == before
