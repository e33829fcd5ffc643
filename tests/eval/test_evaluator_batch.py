"""The batched evaluation path must reproduce serial evaluation exactly."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchPredictionEngine
from repro.core.vmis import VMISKNN
from repro.data.split import temporal_split
from repro.eval.evaluator import evaluate_next_item, evaluate_next_item_batched


@pytest.fixture(scope="module")
def split(small_log):
    return temporal_split(small_log, test_days=1)


@pytest.fixture(scope="module")
def model(split):
    return VMISKNN.from_clicks(
        list(split.train), m=60, k=30, exclude_current_items=True
    )


@pytest.fixture(scope="module")
def serial_result(model, split):
    return evaluate_next_item(
        model, split.test_sequences(), cutoff=10, max_predictions=300
    )


@pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
def test_metrics_identical_to_serial(model, split, serial_result, batch_size):
    batched = evaluate_next_item_batched(
        model,
        split.test_sequences(),
        cutoff=10,
        batch_size=batch_size,
        max_predictions=300,
    )
    assert batched.predictions == serial_result.predictions
    assert batched.summary() == serial_result.summary()


def test_through_batch_engine(model, split, serial_result):
    with BatchPredictionEngine(model, cache_size=512) as engine:
        batched = evaluate_next_item_batched(
            engine,
            split.test_sequences(),
            cutoff=10,
            batch_size=64,
            max_predictions=300,
        )
        assert batched.summary() == serial_result.summary()
        info = engine.cache_info()
        assert info["misses"] > 0  # the replay actually went through the cache


def test_fallback_without_recommend_batch(split, serial_result, model):
    class LoopOnly:
        def recommend(self, session_items, how_many=21):
            return model.recommend(session_items, how_many=how_many)

    batched = evaluate_next_item_batched(
        LoopOnly(), split.test_sequences(), cutoff=10, max_predictions=300
    )
    assert batched.summary() == serial_result.summary()


def test_latency_is_amortised_per_batch(model, split):
    result = evaluate_next_item_batched(
        model,
        split.test_sequences(),
        cutoff=10,
        batch_size=50,
        measure_latency=True,
        max_predictions=100,
    )
    assert len(result.latencies_seconds) == result.predictions
    # every prediction in a batch carries the same amortised cost
    assert len(set(result.latencies_seconds[:50])) == 1


def test_rejects_bad_batch_size(model, split):
    with pytest.raises(ValueError):
        evaluate_next_item_batched(model, split.test_sequences(), batch_size=0)
