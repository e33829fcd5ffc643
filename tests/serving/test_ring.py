"""Tests for the consistent-hash ring: invariants, balance, minimal movement.

The ring is the placement substrate of the serving path: sticky routing
(the leader lookup) and the coordinator's preference lists both come
from here, so these tests pin the properties everything above depends
on — stability, determinism, distinct-replica preference lists, bounded
imbalance, and the minimal-movement bound (the fraction of keys that
change primary on a membership change is the departing/arriving pod's
owned fraction of the keyspace, nothing more).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.ring import DEFAULT_VIRTUAL_NODES, HashRing


def ring_with(pods: list[str], virtual_nodes: int = DEFAULT_VIRTUAL_NODES) -> HashRing:
    ring = HashRing(virtual_nodes=virtual_nodes)
    for pod in pods:
        ring.add_pod(pod)
    return ring


class TestMembership:
    def test_add_remove_roundtrip(self):
        ring = ring_with(["a", "b"])
        assert ring.pods == ["a", "b"]
        assert "a" in ring and len(ring) == 2
        ring.remove_pod("a")
        assert ring.pods == ["b"]
        assert "a" not in ring

    def test_duplicate_add_rejected(self):
        ring = ring_with(["a"])
        with pytest.raises(ValueError):
            ring.add_pod("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(ValueError):
            ring_with(["a"]).remove_pod("b")

    def test_virtual_nodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(virtual_nodes=0)

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(RuntimeError):
            HashRing().preference_list("key", 1)

    def test_empty_ring_primary_raises(self):
        with pytest.raises(RuntimeError):
            HashRing().primary("x")

    def test_custom_virtual_nodes(self):
        assert ring_with(["a", "b"], virtual_nodes=16).virtual_nodes == 16


class TestLookup:
    def test_primary_is_a_registered_pod(self):
        assert ring_with(["pod-0", "pod-1"]).primary("session-x") in {"pod-0", "pod-1"}

    def test_stability(self):
        ring = ring_with(["a", "b", "c"])
        assert all(ring.primary("key-42") == ring.primary("key-42") for _ in range(10))

    def test_primary_is_head_of_preference_list(self):
        ring = ring_with(["a", "b", "c"])
        for i in range(100):
            key = f"k{i}"
            prefs = ring.preference_list(key, 3)
            assert ring.primary(key) == prefs[0]

    def test_preference_list_distinct_pods(self):
        ring = ring_with(["a", "b", "c", "d"])
        for i in range(200):
            prefs = ring.preference_list(f"k{i}", 3)
            assert len(prefs) == 3
            assert len(set(prefs)) == 3

    def test_preference_list_capped_at_pod_count(self):
        ring = ring_with(["a", "b"])
        prefs = ring.preference_list("k", 5)
        assert sorted(prefs) == ["a", "b"]

    def test_lookup_deterministic_across_instances(self):
        pods = [f"pod-{i}" for i in range(5)]
        first, second = ring_with(pods), ring_with(list(reversed(pods)))
        for i in range(300):
            key = f"session-{i}"
            assert first.preference_list(key, 2) == second.preference_list(key, 2)


GOLDEN_LEADERS = Path(__file__).with_name("ring_leaders_golden.json")


class TestPlacementDoesNotMove:
    """A pod restarted on new code must find its sessions where the old
    code put them: the leaders of 2 000 fixed keys, recorded while the
    ring hash was ``hashlib.blake2b`` (it is ``_blake2.blake2b`` now)."""

    @pytest.mark.parametrize("pods", [2, 3])
    def test_leaders_equal_the_recorded_ones(self, pods):
        golden = json.loads(GOLDEN_LEADERS.read_text())
        ring = ring_with(
            [f"pod-{n}" for n in range(pods)],
            virtual_nodes=golden["virtual_nodes"],
        )
        leaders = "".join(
            ring.primary(f"session-{key}").removeprefix("pod-")
            for key in range(golden["keys"])
        )
        assert leaders == golden[str(pods)]


class TestOwnedFraction:
    def test_fractions_sum_to_one(self):
        ring = ring_with([f"pod-{i}" for i in range(6)])
        total = sum(ring.owned_fraction(pod) for pod in ring.pods)
        assert total == pytest.approx(1.0)

    def test_single_pod_owns_everything(self):
        assert ring_with(["solo"]).owned_fraction("solo") == 1.0

    def test_unknown_pod_rejected(self):
        with pytest.raises(ValueError):
            ring_with(["a"]).owned_fraction("b")

    def test_balance_within_documented_bound(self):
        """128 virtual nodes keep per-pod load within ~±35% of even."""
        ring = ring_with([f"pod-{i}" for i in range(4)])
        for pod in ring.pods:
            assert 0.25 * 0.65 <= ring.owned_fraction(pod) <= 0.25 * 1.35


class TestBalance:
    def test_four_pods_share_keys_roughly_uniformly(self):
        ring = ring_with([f"pod-{i}" for i in range(4)])
        counts = dict.fromkeys(ring.pods, 0)
        for i in range(4000):
            counts[ring.primary(f"session-{i}")] += 1
        for pod_count in counts.values():
            assert 700 <= pod_count <= 1300  # within ~30% of perfect


def sampling_epsilon(fraction: float, n: int) -> float:
    """Each sampled key lands in the moved arcs independently with
    p = fraction, so the moved count is Binomial(n, p); a 4.5-sigma
    band (+ a small absolute floor) makes false alarms ~1e-5 per
    example even as hypothesis sweeps hundreds of seeds."""
    return 4.5 * math.sqrt(fraction * (1.0 - fraction) / n) + 0.01


class TestMinimalMovement:
    """ISSUE acceptance: fraction of keys changing owner on a membership
    change ≤ the moved segments' fraction of the ring + ε (sampling)."""

    @given(num_pods=st.integers(2, 6), removed=st.integers(0, 5), seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_removal_moves_exactly_the_owned_fraction(self, num_pods, removed, seed):
        pods = [f"pod-{i}" for i in range(num_pods)]
        victim = pods[removed % num_pods]
        ring = ring_with(pods)
        keys = [f"s{seed}-{i}" for i in range(800)]
        before = {key: ring.primary(key) for key in keys}
        moved_fraction = ring.owned_fraction(victim)
        ring.remove_pod(victim)
        changed = 0
        for key in keys:
            after = ring.primary(key)
            if before[key] != victim:
                # Keys outside the victim's segments never move.
                assert after == before[key]
            else:
                changed += 1
                assert after != victim
        epsilon = sampling_epsilon(moved_fraction, len(keys))
        assert changed / len(keys) <= moved_fraction + epsilon

    @given(num_pods=st.integers(1, 5), seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_addition_moves_only_the_new_pods_fraction(self, num_pods, seed):
        pods = [f"pod-{i}" for i in range(num_pods)]
        ring = ring_with(pods)
        keys = [f"s{seed}-{i}" for i in range(800)]
        before = {key: ring.primary(key) for key in keys}
        ring.add_pod("pod-new")
        changed = 0
        for key in keys:
            after = ring.primary(key)
            if after != before[key]:
                # A moved key can only have moved TO the new pod.
                assert after == "pod-new"
                changed += 1
        new_fraction = ring.owned_fraction("pod-new")
        epsilon = sampling_epsilon(new_fraction, len(keys))
        assert changed / len(keys) <= new_fraction + epsilon

    def test_preference_lists_survive_unrelated_removal(self):
        """Replica placement is minimally disrupted too: removing a pod
        outside a key's preference list leaves the list unchanged."""
        ring = ring_with([f"pod-{i}" for i in range(5)])
        keys = [f"k{i}" for i in range(400)]
        before = {key: ring.preference_list(key, 2) for key in keys}
        ring.remove_pod("pod-3")
        for key in keys:
            if "pod-3" not in before[key]:
                assert ring.preference_list(key, 2) == before[key]


class TestMinimalDisruption:
    """The same property on arbitrary keys, exactly: a key moves only
    off the removed pod, or only onto the added one."""

    @given(
        num_pods=st.integers(2, 6),
        removed=st.integers(0, 5),
        keys=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=60),
    )
    @settings(max_examples=40)
    def test_removal_only_remaps_removed_pods_sessions(
        self, num_pods, removed, keys
    ):
        pods = [f"pod-{i}" for i in range(num_pods)]
        removed_pod = pods[removed % num_pods]
        ring = ring_with(pods)
        before = {key: ring.primary(key) for key in keys}
        ring.remove_pod(removed_pod)
        for key in keys:
            after = ring.primary(key)
            if before[key] != removed_pod:
                assert after == before[key]
            else:
                assert after != removed_pod

    @given(
        num_pods=st.integers(1, 5),
        keys=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=60),
    )
    @settings(max_examples=40)
    def test_addition_only_steals_sessions_for_new_pod(self, num_pods, keys):
        ring = ring_with([f"pod-{i}" for i in range(num_pods)])
        before = {key: ring.primary(key) for key in keys}
        ring.add_pod("pod-new")
        for key in keys:
            after = ring.primary(key)
            assert after == before[key] or after == "pod-new"
