"""The correctness oracle: the heap VMIS-kNN, recomputed client-side.

The served engine is the columnar scorer; the per-item-heap ``VMISKNN``
is the repo's differential reference, bit-identical by contract. The
benchmark recomputes sampled answers with it on the same index and
requires the same item ids and the same floats after the JSON round trip.
"""

from __future__ import annotations

from repro.core.index import SessionIndex
from repro.core.vmis import VMISKNN
from repro.serving.rules import BusinessRules
from repro.serving.server import OVERFETCH_FACTOR

from workloads import SLOT_SIZE, Op


class Oracle:
    def __init__(self, index: SessionIndex) -> None:
        self._model = VMISKNN(index, m=500, k=100, exclude_current_items=True)
        self._rules = BusinessRules()
        self._memo: dict[tuple[bool, tuple[int, ...]], list[tuple[int, float]]] = {}

    def expected(self, op: Op) -> list[list[tuple[int, float]]]:
        """The ranked ``(item, score)`` list of every session of ``op``."""
        return [self._ranked(op.is_batch, view) for view in op.views]

    def _ranked(self, batch: bool, view: tuple[int, ...]) -> list[tuple[int, float]]:
        key = (batch, view)
        ranked = self._memo.get(key)
        if ranked is None:
            items = list(view)
            if batch:
                # The batch endpoint is the bulk surface: no over-fetch,
                # no business rules.
                scored = self._model.recommend(items, how_many=SLOT_SIZE)
            else:
                raw = self._model.recommend(items, how_many=SLOT_SIZE * OVERFETCH_FACTOR)
                scored = self._rules.apply(raw, items, SLOT_SIZE)
            ranked = [(entry.item_id, entry.score) for entry in scored]
            self._memo[key] = ranked
        return ranked
