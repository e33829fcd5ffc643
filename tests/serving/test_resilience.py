"""Tests for the SLA guardrail layer: deadlines, breakers, fallbacks, shedding.

Every time-dependent scenario but one runs on a :class:`VirtualClock` — a
stage "stalls" by advancing virtual time, a breaker cool-down elapses with
one ``advance`` call, and all assertions are exact. The exception is
:class:`TestRealClock`, which really sleeps: what production runs is the
monotonic clock, and the chain has a single execution path to check on it.
"""

from __future__ import annotations

import time

import pytest

from repro.core.deadline import Deadline
from repro.core.types import ScoredItem
from repro.serving.app import ServingCluster
from repro.serving.resilience import (
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    FallbackChain,
    FallbackStage,
    Overloaded,
    ResiliencePolicy,
    ResilientRecommender,
    StaticRecommender,
    popularity_from_index,
)
from repro.testing.clock import VirtualClock


class FlakyRecommender:
    """Scriptable stage: raises, stalls (virtually), or answers on schedule.

    A "stall" advances the shared virtual clock by ``stall_seconds``,
    modelling a slow model burning the request's budget without any real
    time passing.
    """

    def __init__(self, fail_every: int = 0, stall_every: int = 0,
                 stall_seconds: float = 0.2, clock: VirtualClock | None = None):
        self.fail_every = fail_every
        self.stall_every = stall_every
        self.stall_seconds = stall_seconds
        self.clock = clock
        self.calls = 0

    def recommend(self, session_items, how_many=21):
        self.calls += 1
        if self.fail_every and self.calls % self.fail_every == 0:
            raise RuntimeError("injected model failure")
        if self.stall_every and self.calls % self.stall_every == 0:
            assert self.clock is not None, "stalling needs the virtual clock"
            self.clock.advance(self.stall_seconds)
        return [ScoredItem(1000 + i, 1.0 / (i + 1)) for i in range(how_many)]

    def recommend_batch(self, sessions, how_many=21):
        return [self.recommend(s, how_many) for s in sessions]


class AlwaysFailing:
    def recommend(self, session_items, how_many=21):
        raise RuntimeError("dead model")

    def recommend_batch(self, sessions, how_many=21):
        raise RuntimeError("dead model")


def pod_recommender(index, primary, policy=None):
    """What a guarded pod serves through (``ServingCluster.with_index``
    with a resilience policy: primary → index popularity → static top
    list, on the real clocks), its primary swapped for ``primary``."""
    cluster = ServingCluster.with_index(
        index, num_pods=1, resilience=policy or ResiliencePolicy()
    )
    recommender = cluster.pods["pod-0"].recommender
    assert isinstance(recommender, ResilientRecommender)
    recommender.chain.stages[0].recommender = primary
    return recommender


def make_chain(primary, clock=None, reserve_ms=8.0, policy=None):
    policy = policy or ResiliencePolicy(fallback_reserve_ms=reserve_ms)
    clock = clock or VirtualClock()
    fallback = StaticRecommender([ScoredItem(i, 1.0 - i / 100) for i in range(50)])
    terminal = StaticRecommender([ScoredItem(200 + i, 0.5) for i in range(50)])
    return FallbackChain(
        stages=[
            FallbackStage("primary", primary, CircuitBreaker.from_policy(policy, clock)),
            FallbackStage("popularity", fallback, CircuitBreaker.from_policy(policy, clock)),
        ],
        terminal=terminal,
        reserve_seconds=policy.fallback_reserve_ms / 1000.0,
        clock=clock,
    )


class TestDeadline:
    def test_counts_down_on_injected_clock(self):
        clock = VirtualClock()
        deadline = Deadline(0.050, clock=clock)
        assert deadline.remaining() == pytest.approx(0.050)
        assert not deadline.expired
        clock.advance(0.030)
        assert deadline.remaining() == pytest.approx(0.020)
        clock.advance(0.030)
        assert deadline.expired
        assert deadline.remaining() == 0.0  # never negative
        assert deadline.elapsed() == pytest.approx(0.060)

    def test_after_ms_and_budget(self):
        clock = VirtualClock()
        deadline = Deadline.after_ms(50, clock=clock)
        assert deadline.budget_seconds == pytest.approx(0.050)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-0.001)

    def test_zero_budget_starts_expired(self):
        assert Deadline(0.0, clock=VirtualClock()).expired


class TestCircuitBreaker:
    def make(self, clock, threshold=0.5, window=10, min_calls=4, probe=5.0):
        return CircuitBreaker(
            failure_threshold=threshold, window=window,
            min_calls=min_calls, probe_seconds=probe, clock=clock,
        )

    def test_full_lifecycle_closed_open_half_open_closed(self):
        clock = VirtualClock()
        breaker = self.make(clock)
        assert breaker.state is BreakerState.CLOSED
        # Failures below min_calls do not trip.
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        # The 4th failure reaches min_calls at 100% failure rate: OPEN.
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        # While open, calls are short-circuited.
        assert not breaker.allow()
        assert breaker.short_circuits == 1
        # After the cool-down: HALF_OPEN, exactly one probe allowed.
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        assert not breaker.allow()  # second concurrent probe rejected
        # Probe succeeds: CLOSED again with a clean window.
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = VirtualClock()
        breaker = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()  # the probe
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        # Another full cool-down is required before the next probe.
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_cancel_releases_probe_slot_without_outcome(self):
        clock = VirtualClock()
        breaker = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.cancel()  # probe never ran (budget died first)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # slot is free again

    def test_failure_rate_threshold_mixes_successes(self):
        clock = VirtualClock()
        breaker = self.make(clock, threshold=0.5, window=4, min_calls=4)
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # 1/3 < 0.5
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN  # 2/4 >= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)


class TestStaticRecommender:
    def test_excludes_session_items(self):
        ranked = [ScoredItem(i, 1.0 - i / 10) for i in range(5)]
        static = StaticRecommender(ranked)
        assert [s.item_id for s in static.recommend([], how_many=3)] == [0, 1, 2]
        assert [s.item_id for s in static.recommend([0, 2], how_many=3)] == [1, 3, 4]

    def test_popularity_from_index_ranks_by_frequency(self, toy_index):
        popularity = popularity_from_index(toy_index)
        items = [s.item_id for s in popularity.recommend([], how_many=3)]
        # Item 2 appears in 4 toy sessions — the most popular.
        assert items[0] == 2
        scores = [s.score for s in popularity.recommend([], how_many=10)]
        assert scores == sorted(scores, reverse=True)


class TestFallbackChain:
    def test_healthy_primary_serves_undegraded(self):
        clock = VirtualClock()
        chain = make_chain(FlakyRecommender(), clock=clock)
        outcome = chain.run([1, 2], 10, Deadline(0.5, clock=clock))
        assert outcome.stage == "primary"
        assert not outcome.degraded
        assert len(outcome.items) == 10
        chain.close()

    def test_raising_primary_falls_back(self):
        clock = VirtualClock()
        chain = make_chain(FlakyRecommender(fail_every=1), clock=clock)
        outcome = chain.run([1, 2], 10, Deadline(0.5, clock=clock))
        assert outcome.stage == "popularity"
        assert outcome.degraded
        assert outcome.errors == 1
        assert outcome.items
        chain.close()

    def test_exhausted_budget_serves_terminal_inline(self):
        clock = VirtualClock()
        chain = make_chain(FlakyRecommender(), clock=clock)
        # Deadline on the same virtual clock, already expired.
        outcome = chain.run([1, 2], 10, Deadline(0.0, clock=clock))
        assert outcome.stage == "static-rules"
        assert outcome.degraded
        assert outcome.deadline_exceeded
        assert outcome.items  # the terminal always answers
        chain.close()

    def test_stalling_primary_times_out_and_falls_back(self):
        clock = VirtualClock()
        # Every call stalls 200 ms against a 50 ms budget.
        primary = FlakyRecommender(stall_every=1, stall_seconds=0.2, clock=clock)
        chain = make_chain(primary, clock=clock)
        outcome = chain.run([1, 2], 10, Deadline(0.050, clock=clock))
        # The stage ran (inline stages cannot be abandoned mid-call) but
        # its result was discarded as over-deadline; no budget remained
        # for the popularity stage, so the terminal answered.
        assert primary.calls == 1
        assert chain.stages[0].timeouts == 1
        assert outcome.stage == "static-rules"
        assert outcome.deadline_exceeded
        assert outcome.items
        chain.close()

    def test_all_stages_failing_still_answers(self):
        clock = VirtualClock()
        chain = make_chain(AlwaysFailing(), clock=clock)
        chain.stages[1] = FallbackStage(
            "popularity", AlwaysFailing(),
            CircuitBreaker(min_calls=100, clock=clock),
        )
        outcome = chain.run([1], 5, Deadline(0.5, clock=clock))
        assert outcome.stage == "static-rules"
        assert outcome.errors == 2
        assert outcome.items
        chain.close()

    def test_tripped_breaker_skips_primary_without_calling_it(self):
        clock = VirtualClock()
        primary = AlwaysFailing()
        policy = ResiliencePolicy(breaker_window=10, breaker_min_calls=3)
        chain = make_chain(primary, clock=clock, policy=policy)
        for _ in range(3):
            chain.run([1], 5, Deadline(0.5, clock=clock))
        assert chain.breaker_states()["primary"] is BreakerState.OPEN
        calls_before = chain.stages[0].calls
        outcome = chain.run([1], 5, Deadline(0.5, clock=clock))
        assert outcome.stage == "popularity"
        assert chain.stages[0].calls == calls_before  # short-circuited
        assert chain.stages[0].breaker.short_circuits >= 1
        chain.close()

    def test_breaker_recovers_after_virtual_cooldown(self):
        clock = VirtualClock()
        primary = FlakyRecommender(clock=clock)
        policy = ResiliencePolicy(breaker_min_calls=2, breaker_window=4,
                                  breaker_probe_seconds=5.0)
        chain = make_chain(primary, clock=clock, policy=policy)
        # Trip the breaker with a temporarily dead primary.
        chain.stages[0].recommender = AlwaysFailing()
        for _ in range(2):
            chain.run([1], 5, Deadline(0.5, clock=clock))
        assert chain.breaker_states()["primary"] is BreakerState.OPEN
        # Heal the model and let the cool-down elapse virtually.
        chain.stages[0].recommender = primary
        clock.advance(policy.breaker_probe_seconds)
        outcome = chain.run([1], 5, Deadline(0.5, clock=clock))
        assert outcome.stage == "primary"  # the half-open probe succeeded
        assert chain.breaker_states()["primary"] is BreakerState.CLOSED
        chain.close()

    def test_requires_at_least_one_stage(self):
        with pytest.raises(ValueError):
            FallbackChain([], terminal=StaticRecommender())


@pytest.mark.chaos
class TestDeadlineEnforcement:
    """A primary stalling 200 ms on every 5th call must never push a
    request past the 50 ms budget. On the virtual clock the outcome is
    exact: healthy calls consume zero budget, stalled calls consume
    exactly 200 ms and are served by a fallback inside the budget."""

    def test_slow_primary_never_breaks_the_sla(self):
        clock = VirtualClock()
        primary = FlakyRecommender(stall_every=5, stall_seconds=0.2, clock=clock)
        policy = ResiliencePolicy(
            budget_ms=50.0, fallback_reserve_ms=10.0,
            # Keep the breaker out of the way: this test isolates deadlines.
            breaker_failure_threshold=1.0, breaker_min_calls=1000,
        )
        chain = make_chain(primary, clock=clock, policy=policy)
        recommender = ResilientRecommender(chain, policy, clock=clock)
        elapsed: list[float] = []
        degraded = 0
        for _ in range(25):
            started = clock.now
            outcome = recommender.run([1, 2, 3], 10, policy.budget(clock))
            elapsed.append(clock.now - started)
            assert outcome.items  # always an answer
            if outcome.degraded:
                degraded += 1
        # Healthy calls advance the clock by exactly nothing; stalled
        # calls by the stall (up to float error in the running sum).
        assert elapsed.count(0.0) == 20
        stalls = [e for e in elapsed if e != 0.0]
        assert len(stalls) == 5
        assert stalls == pytest.approx([0.2] * 5)
        assert degraded == 5  # every 5th call stalled and was degraded
        info = recommender.info()
        assert info["deadline_timeouts"] == 5
        assert info["served_by_stage"]["primary"] == 20
        assert info["served_by_stage"]["static-rules"] == 5
        recommender.close()

    def test_same_seedless_run_is_bit_identical(self):
        """The whole scenario is a pure function: replaying it yields the
        same counters, stage decisions and virtual timestamps."""
        def run_once():
            clock = VirtualClock()
            primary = FlakyRecommender(stall_every=3, stall_seconds=0.08,
                                       clock=clock)
            policy = ResiliencePolicy(budget_ms=50.0, fallback_reserve_ms=10.0)
            chain = make_chain(primary, clock=clock, policy=policy)
            recommender = ResilientRecommender(chain, policy, clock=clock)
            trace = []
            for _ in range(12):
                outcome = recommender.run([1, 2], 5, policy.budget(clock))
                trace.append((outcome.stage, outcome.deadline_exceeded,
                              clock.now))
            info = recommender.info()
            recommender.close()
            return trace, info

        first_trace, first_info = run_once()
        second_trace, second_info = run_once()
        assert first_trace == second_trace
        assert first_info == second_info


class SleepyPrimary:
    """A primary that really sleeps ``stall_seconds`` on every call."""

    def __init__(self, stall_seconds: float) -> None:
        self.stall_seconds = stall_seconds
        self.calls = 0

    def recommend(self, session_items, how_many=21):
        self.calls += 1
        time.sleep(self.stall_seconds)
        return [ScoredItem(1000 + i, 1.0 / (i + 1)) for i in range(how_many)]


@pytest.mark.chaos
class TestRealClock:
    """The guardrail on ``time.monotonic``: a stalled primary overruns
    its own requests, and the breaker protects the ones after them."""

    def test_stalled_primary_opens_the_breaker_then_heals(self, toy_index):
        # Defaults (50 ms budget, 8 ms reserve, breaker after 5 calls)
        # but for the probe interval, 5 s by default.
        policy = ResiliencePolicy(breaker_probe_seconds=0.3)
        primary = SleepyPrimary(stall_seconds=policy.budget_ms / 1000.0 + 0.010)
        recommender = pod_recommender(toy_index, primary, policy)
        chain = recommender.chain

        # The stalled calls cannot be abandoned: each overruns, is counted
        # as a deadline timeout, and gets the terminal's answer.
        for _ in range(policy.breaker_min_calls):
            outcome = recommender.run([1, 2], 5, policy.budget())
            assert outcome.items
            assert outcome.deadline_exceeded and outcome.degraded
            assert outcome.stage == "static-rules"
        assert recommender.info()["deadline_timeouts"] == policy.breaker_min_calls
        assert chain.stages[0].timeouts == policy.breaker_min_calls
        assert chain.breaker_states()["primary"] is BreakerState.OPEN

        # Every later request skips the primary and is inside the budget.
        for _ in range(20):
            started = time.monotonic()
            outcome = recommender.run([1, 2], 5, policy.budget())
            assert outcome.items
            assert time.monotonic() - started < policy.budget_ms / 1000.0
            assert outcome.degraded and not outcome.deadline_exceeded
            assert outcome.stage == "fallback"
        assert primary.calls == policy.breaker_min_calls
        assert recommender.info()["breaker_short_circuits"] == 20

        # A healthy primary closes the breaker again at the next probe.
        primary.stall_seconds = 0.0
        time.sleep(policy.breaker_probe_seconds)
        outcome = recommender.run([1, 2], 5, policy.budget())
        assert outcome.items
        assert outcome.stage == "primary" and not outcome.degraded
        assert chain.breaker_states()["primary"] is BreakerState.CLOSED
        recommender.close()


class TestResilientRecommender:
    def test_satisfies_recommender_protocol(self):
        from repro.core.predictor import SessionRecommender

        chain = make_chain(FlakyRecommender())
        recommender = ResilientRecommender(chain)
        assert isinstance(recommender, SessionRecommender)
        batches = recommender.recommend_batch([[1], [2]], how_many=5)
        assert len(batches) == 2
        recommender.close()

    def test_counters_and_returned_outcome(self):
        chain = make_chain(FlakyRecommender(fail_every=2))
        recommender = ResilientRecommender(chain)
        recommender.recommend([1])   # primary ok
        # primary raises -> popularity
        outcome = recommender.run([1], 21, recommender.policy.budget())
        assert outcome.stage == "popularity" and outcome.degraded
        info = recommender.info()
        assert info["requests"] == 2
        assert info["degraded_requests"] == 1
        assert info["stage_errors"] == 1
        assert info["served_by_stage"] == {"primary": 1, "popularity": 1}
        recommender.close()

    def test_from_index_chain(self, toy_index):
        """The chain ``ServingCluster.with_index`` derives from the index:
        a failing primary falls back to the index's popularity ranking."""
        recommender = pod_recommender(toy_index, AlwaysFailing())
        outcome = recommender.run([1], 3, recommender.policy.budget())
        assert outcome.items  # popularity fallback answered
        assert outcome.items == popularity_from_index(toy_index).recommend([1], 3)
        assert outcome.stage == "fallback" and outcome.degraded
        recommender.close()


class TestAdmissionController:
    def test_sheds_oldest_first(self):
        admission = AdmissionController(capacity=2)
        first = admission.submit("s1")
        second = admission.submit("s2")
        third = admission.submit("s3")  # over capacity: s1 is shed
        assert first.shed
        assert not second.shed and not third.shed
        assert admission.shed_count == 1
        assert admission.inflight == 2

    def test_release_frees_capacity(self):
        admission = AdmissionController(capacity=1)
        token = admission.submit("a")
        admission.release(token)
        assert admission.inflight == 0
        fresh = admission.submit("b")
        assert not fresh.shed
        admission.release(token)  # double release is harmless

    def test_info_and_validation(self):
        admission = AdmissionController(capacity=3)
        admission.submit("a")
        info = admission.info()
        assert info["capacity"] == 3 and info["inflight"] == 1
        with pytest.raises(ValueError):
            AdmissionController(capacity=0)

    def test_overloaded_carries_retry_after(self):
        error = Overloaded()
        assert error.retry_after_ms == 100.0
