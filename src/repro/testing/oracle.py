"""The differential oracle: replay one workload through every implementation.

The paper's central correctness claim is that VMIS-kNN (Algorithm 2) is
an *exact* reformulation of VS-kNN (Algorithm 1). The oracle makes that
claim executable: build every implementation from the same click log,
ask each the same queries under the same ``(m, k, π, λ)`` hyperparameters
and compare outputs.

Two comparison strengths, matched to what each implementation promises:

* **bit-exact** (scores and ranks) — ``VSKNN`` (untruncated index,
  ``scoring_style="vmis"``) vs ``VMISKNN`` vs ``VMISKNN.no_opt`` vs
  :class:`~repro.core.colindex.VMISKNNColumnar` (the vectorized scorer,
  asked per query and, as ``vmis-columnar-batch``, once for the whole
  query list through its fused ``recommend_batch``)
  vs :class:`~repro.core.batch.BatchPredictionEngine` (``batch-sessions``,
  cache off). These are documented as exactly equivalent, including
  floating-point summation order and all tie-breaking.
* **rank-exact** — the :mod:`repro.engines` study backends (hashmap /
  dataflow / sqlengine), which guarantee the same top-k *items* only
  inside their documented envelope (``m >=`` the session count, linear
  decay, paper match weight); their internal summation orders differ, so
  scores may differ in the last ulp. Queries whose k-th neighbour cut
  falls inside that float noise are skipped (see
  :func:`_neighbor_cut_stable`): when two sessions are mathematically
  tied at the cut, which one wins depends on summation order, and the
  candidate pools legitimately differ.

When implementations disagree, :meth:`DifferentialRunner.shrink` runs a
ddmin-style minimiser over the click log (then the query) to produce the
smallest failing case, and :func:`write_regression` freezes it as JSON
under ``tests/regressions/`` so the bug stays fixed forever.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.batch import BatchPredictionEngine
from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.floatcmp import scores_differ
from repro.core.index import SessionIndex
from repro.core.types import Click, ItemId
from repro.core.vmis import VMISKNN
from repro.core.vsknn import VSKNN
from repro.testing.generators import WorkloadConfig, WorkloadGenerator

__all__ = [
    "HyperParams",
    "DivergenceCase",
    "OracleReport",
    "DifferentialRunner",
    "default_grid",
    "write_regression",
    "load_regression",
]

REFERENCE = "vsknn"

#: Members that answer a comparison through one ``recommend_batch`` call.
BATCHED = frozenset({"vmis-columnar-batch"})


@dataclass(frozen=True)
class HyperParams:
    """One point of the (m, k, π, λ) hyperparameter grid."""

    m: int = 500
    k: int = 100
    decay: str = "linear"
    match_weight: str = "paper"


def default_grid() -> list[HyperParams]:
    """The full cross-product the oracle sweeps by default.

    ``m`` values straddle the truncation boundary of small workloads
    (m=1 prunes aggressively; m=64 usually exceeds the session count),
    and every π/λ named function is covered.
    """
    return [
        HyperParams(m, k, decay, match_weight)
        for m, k, decay, match_weight in product(
            (1, 2, 5, 64),
            (1, 3, 20),
            ("linear", "quadratic", "log"),
            ("paper", "uniform"),
        )
    ]


@dataclass
class DivergenceCase:
    """A workload on which two implementations disagreed."""

    clicks: list[Click]
    query: list[ItemId]
    params: HyperParams
    impl_a: str
    impl_b: str
    output_a: list[tuple[ItemId, float]]
    output_b: list[tuple[ItemId, float]]

    def describe(self) -> str:
        return (
            f"{self.impl_a} vs {self.impl_b} diverged under {self.params} "
            f"on a {len(self.clicks)}-click log, query {self.query}: "
            f"{self.output_a} != {self.output_b}"
        )


@dataclass
class OracleReport:
    """Outcome of a corpus sweep."""

    workloads: int = 0
    comparisons: int = 0
    divergences: list[DivergenceCase] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.divergences


ImplFactory = Callable[[list[Click], HyperParams], object]


def _core_implementations() -> dict[str, ImplFactory]:
    """The bit-exact family, all built from the same click log."""

    def vsknn(clicks: list[Click], p: HyperParams) -> VSKNN:
        # The reference: untruncated index, Algorithm 1 candidate
        # materialisation, Algorithm 2 scoring for comparability.
        index = SessionIndex.from_clicks(clicks, max_sessions_per_item=2**62)
        return VSKNN(
            index,
            m=p.m,
            k=p.k,
            decay=p.decay,
            match_weight=p.match_weight,
            scoring_style="vmis",
        )

    def vmis(clicks: list[Click], p: HyperParams) -> VMISKNN:
        index = SessionIndex.from_clicks(clicks, max_sessions_per_item=p.m)
        return VMISKNN(
            index, m=p.m, k=p.k, decay=p.decay, match_weight=p.match_weight
        )

    def vmis_no_opt(clicks: list[Click], p: HyperParams) -> VMISKNN:
        index = SessionIndex.from_clicks(clicks, max_sessions_per_item=p.m)
        return VMISKNN.no_opt(
            index, m=p.m, k=p.k, decay=p.decay, match_weight=p.match_weight
        )

    def vmis_columnar(clicks: list[Click], p: HyperParams) -> VMISKNNColumnar:
        # The vectorized scorer is held to *bit*-equality with the heap
        # path, not rank-equality: same index contents, columnar layout.
        index = SessionIndex.from_clicks(clicks, max_sessions_per_item=p.m)
        return VMISKNNColumnar(
            ColumnarSessionIndex.from_session_index(index),
            m=p.m,
            k=p.k,
            decay=p.decay,
            match_weight=p.match_weight,
        )

    def batch_sessions(
        clicks: list[Click], p: HyperParams
    ) -> BatchPredictionEngine:
        return BatchPredictionEngine(vmis(clicks, p), cache_size=0)

    return {
        REFERENCE: vsknn,
        "vmis": vmis,
        "vmis-no-opt": vmis_no_opt,
        "vmis-columnar": vmis_columnar,
        "vmis-columnar-batch": vmis_columnar,
        "batch-sessions": batch_sessions,
    }


def _engine_implementations() -> dict[str, ImplFactory]:
    """The study backends: rank-exact inside their envelope only."""
    from repro.engines.dataflow import DataflowVMIS
    from repro.engines.hashmap import HashmapVMIS
    from repro.engines.sqlengine import SQLVMIS

    def build(cls: type) -> ImplFactory:
        def factory(clicks: list[Click], p: HyperParams) -> object:
            index = SessionIndex.from_clicks(clicks, max_sessions_per_item=p.m)
            return cls(index, m=p.m, k=p.k)

        return factory

    return {
        "engine-hashmap": build(HashmapVMIS),
        "engine-dataflow": build(DataflowVMIS),
        "engine-sql": build(SQLVMIS),
    }


def _in_engine_envelope(clicks: Sequence[Click], p: HyperParams) -> bool:
    num_sessions = len({c.session_id for c in clicks})
    return (
        p.m >= num_sessions
        and p.decay == "linear"
        and p.match_weight == "paper"
    )


def _neighbor_cut_stable(
    clicks: Sequence[Click], query: Sequence[ItemId], p: HyperParams
) -> bool:
    """Whether the k-th neighbour cut survives summation-order noise.

    The study backends accumulate similarity in different orders than the
    core implementations, so mathematically tied neighbours can land one
    ulp apart and a different session wins the cut — after which the
    candidate item pools (and so the rankings) legitimately differ. Rank
    equality is only a meaningful claim when the gap at the cut exceeds
    float noise; queries where it does not are skipped.
    """
    index = SessionIndex.from_clicks(clicks, max_sessions_per_item=p.m)
    knn = VMISKNN(index, m=p.m, k=p.k, decay=p.decay, match_weight=p.match_weight)
    similarities = sorted(
        knn._matching_similarities(knn._capped(list(query))).values(),
        reverse=True,
    )
    if len(similarities) <= p.k:
        return True  # every candidate is selected; there is no cut
    return scores_differ(similarities[p.k - 1], similarities[p.k])


class DifferentialRunner:
    """Replays workloads through every implementation and diffs outputs.

    Args:
        how_many: recommendation list length asked of every
            implementation (the paper's frontend asks for 21; the
            acceptance bar here is exact top-20 equivalence).
        include_engines: also run the :mod:`repro.engines` backends
            (rank-level comparison, envelope grid points only).
        extra_implementations: name → factory of additional
            implementations to hold to bit-exactness against the
            reference — the hook the bug-injection demo uses.
    """

    def __init__(
        self,
        how_many: int = 20,
        include_engines: bool = False,
        extra_implementations: dict[str, ImplFactory] | None = None,
    ) -> None:
        self.how_many = how_many
        self.include_engines = include_engines
        self.implementations = _core_implementations()
        if extra_implementations:
            self.implementations.update(extra_implementations)
        self.engine_implementations = (
            _engine_implementations() if include_engines else {}
        )

    # -- single-case comparison ---------------------------------------------

    def _query(
        self, impl: Any, query: Sequence[ItemId]
    ) -> list[tuple[ItemId, float]]:
        scored = impl.recommend(list(query), how_many=self.how_many)
        return [(s.item_id, s.score) for s in scored]

    def _query_all(
        self, name: str, impl: Any, queries: Sequence[Sequence[ItemId]]
    ) -> list[list[tuple[ItemId, float]]]:
        """Every query's output; one batch call for a ``BATCHED`` member."""
        if name not in BATCHED:
            return [self._query(impl, query) for query in queries]
        batch = [list(query) for query in queries]
        if len(batch) == 1:
            # Fewer than two sessions are answered by ``recommend``
            # itself; a lone query goes twice so the fused path answers.
            batch = batch * 2
        ranked = impl.recommend_batch(batch, how_many=self.how_many)
        return [
            [(s.item_id, s.score) for s in scored]
            for scored in ranked[: len(queries)]
        ]

    @staticmethod
    def _close(impl: Any) -> None:
        close = getattr(impl, "close", None)
        if callable(close):
            close()

    def _output(
        self, impl: Any, query: Sequence[ItemId]
    ) -> list[tuple[ItemId, float]]:
        try:
            return self._query(impl, query)
        finally:
            self._close(impl)

    def compare(
        self,
        clicks: Sequence[Click],
        query: Sequence[ItemId],
        params: HyperParams,
    ) -> list[DivergenceCase]:
        """All divergences from the reference on one (log, query, params)."""
        return self.compare_many(clicks, [query], params)

    def compare_many(
        self,
        clicks: Sequence[Click],
        queries: Sequence[Sequence[ItemId]],
        params: HyperParams,
    ) -> list[DivergenceCase]:
        """Divergences across several queries, building each impl once."""
        clicks = list(clicks)
        divergences: list[DivergenceCase] = []
        reference_impl = self.implementations[REFERENCE](clicks, params)
        references = [
            self._query(reference_impl, query) for query in queries
        ]
        self._close(reference_impl)

        contenders: list[tuple[str, ImplFactory, bool]] = [
            (name, factory, False)
            for name, factory in self.implementations.items()
            if name != REFERENCE
        ]
        stable: list[bool] = [True] * len(queries)
        if self.engine_implementations and _in_engine_envelope(clicks, params):
            stable = [
                _neighbor_cut_stable(clicks, query, params)
                for query in queries
            ]
            contenders.extend(
                (name, factory, True)
                for name, factory in self.engine_implementations.items()
            )
        for name, factory, rank_only in contenders:
            impl = factory(clicks, params)
            asked = [
                position
                for position, cut_stable in enumerate(stable)
                if cut_stable or not rank_only
            ]
            outputs = self._query_all(
                name, impl, [queries[position] for position in asked]
            )
            for position, output in zip(asked, outputs):
                query, reference = queries[position], references[position]
                if rank_only:
                    diverged = [i for i, _ in output] != [
                        i for i, _ in reference
                    ]
                else:
                    diverged = output != reference
                if diverged:
                    divergences.append(
                        DivergenceCase(
                            clicks=clicks,
                            query=list(query),
                            params=params,
                            impl_a=REFERENCE,
                            impl_b=name,
                            output_a=reference,
                            output_b=output,
                        )
                    )
            self._close(impl)
        return divergences

    def _still_diverges(
        self,
        case: DivergenceCase,
        clicks: Sequence[Click],
        query: Sequence[ItemId],
    ) -> bool:
        if not clicks or not query:
            return False
        build = self.implementations.get(case.impl_b) or (
            self.engine_implementations.get(case.impl_b)
        )
        if build is None:
            raise KeyError(f"unknown implementation {case.impl_b!r}")
        reference = self._output(
            self.implementations[REFERENCE](list(clicks), case.params), query
        )
        contender = build(list(clicks), case.params)
        try:
            [output] = self._query_all(case.impl_b, contender, [query])
        finally:
            self._close(contender)
        if case.impl_b in self.engine_implementations:
            if not _in_engine_envelope(clicks, case.params):
                return False
            if not _neighbor_cut_stable(clicks, query, case.params):
                return False
            return [i for i, _ in output] != [i for i, _ in reference]
        return output != reference

    # -- corpus sweep --------------------------------------------------------

    def run_corpus(
        self,
        configs: Iterable[WorkloadConfig],
        grid: Sequence[HyperParams] | None = None,
        queries_per_workload: int = 2,
        stop_on_first: bool = False,
    ) -> OracleReport:
        """Sweep a corpus of workload configs against a hyperparameter grid."""
        grid = list(grid) if grid is not None else default_grid()
        report = OracleReport()
        for config in configs:
            generator = WorkloadGenerator(config)
            clicks = generator.clicks()
            queries = generator.query_sessions(queries_per_workload)
            report.workloads += 1
            for params in grid:
                report.comparisons += len(queries)
                found = self.compare_many(clicks, queries, params)
                report.divergences.extend(found)
                if found and stop_on_first:
                    return report
        return report

    # -- failing-case minimisation ------------------------------------------

    def shrink(self, case: DivergenceCase) -> DivergenceCase:
        """ddmin-style minimisation: smallest click log, then query.

        Greedily removes chunks of clicks (halving chunk sizes down to
        single clicks) while the divergence persists, then prunes query
        items the same way. The result is typically a handful of clicks —
        small enough to read the bug straight off the repro.
        """
        clicks = self._ddmin(
            case.clicks, lambda c: self._still_diverges(case, c, case.query)
        )
        query = self._ddmin(
            case.query, lambda q: self._still_diverges(case, clicks, q)
        )
        fresh = self.compare(clicks, query, case.params)
        for candidate in fresh:
            if candidate.impl_b == case.impl_b:
                return candidate
        # The divergence mutated during shrinking (possible when several
        # implementations disagree at once): fall back to any survivor,
        # else the original.
        return fresh[0] if fresh else case

    @staticmethod
    def _ddmin(items: list, still_fails: Callable[[list], bool]) -> list:
        current = list(items)
        chunk = max(1, len(current) // 2)
        while chunk >= 1:
            shrunk = True
            while shrunk and len(current) > 1:
                shrunk = False
                start = 0
                while start < len(current):
                    candidate = current[:start] + current[start + chunk :]
                    if candidate and still_fails(candidate):
                        current = candidate
                        shrunk = True
                    else:
                        start += chunk
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
        return current


# -- regression corpus -------------------------------------------------------


def write_regression(case: DivergenceCase, directory: str | Path) -> Path:
    """Freeze a (shrunk) divergence as a JSON fixture; returns the path.

    File names are content-derived, so re-finding the same minimal case
    is idempotent.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "impl_a": case.impl_a,
        "impl_b": case.impl_b,
        "params": {
            "m": case.params.m,
            "k": case.params.k,
            "decay": case.params.decay,
            "match_weight": case.params.match_weight,
        },
        "clicks": [[c.session_id, c.item_id, c.timestamp] for c in case.clicks],
        "query": list(case.query),
        "output_a": [[item, score] for item, score in case.output_a],
        "output_b": [[item, score] for item, score in case.output_b],
    }
    blob = json.dumps(
        [payload["impl_b"], payload["params"], payload["clicks"], payload["query"]],
        sort_keys=True,
    )
    digest = hashlib.sha1(blob.encode()).hexdigest()[:8]
    path = directory / f"divergence-{case.impl_b}-{digest}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_regression(path: str | Path) -> DivergenceCase:
    """Load a frozen divergence fixture back into a replayable case."""
    payload = json.loads(Path(path).read_text())
    return DivergenceCase(
        clicks=[Click(s, i, t) for s, i, t in payload["clicks"]],
        query=list(payload["query"]),
        params=HyperParams(**payload["params"]),
        impl_a=payload["impl_a"],
        impl_b=payload["impl_b"],
        output_a=[(item, score) for item, score in payload["output_a"]],
        output_b=[(item, score) for item, score in payload["output_b"]],
    )
