"""The physical plan: one artifact carrying every strategy choice.

A :class:`PhysicalPlan` is what flows through the stack -- executor →
engines → scatter-gather shards → EXPLAIN.  Shipping the artifact (rather
than re-deriving choices per shard) keeps every shard's decisions identical
to the coordinator's, which is what makes the sharded/unsharded
bit-identity invariant cheap to maintain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

# Strategy vocabulary.  "auto" defers to the engine's builtin static
# heuristic -- it is what optimizer="off" plans carry, and makes "off"
# behave exactly like the pre-planner code path.
MERGE_AUTO = "auto"
MERGE_ZIGZAG = "zigzag"
MERGE_SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class TokenEstimate:
    """The cost model's view of one token at plan time."""

    token: str
    document_frequency: int
    estimated_ops: float
    role: str  # "lead" | "probe" | "scan"

    def as_dict(self) -> dict[str, object]:
        return {
            "token": self.token,
            "df": self.document_frequency,
            "estimated_ops": round(self.estimated_ops, 3),
            "role": self.role,
        }


@dataclass(frozen=True)
class PhysicalPlan:
    """Strategy choices for one canonical query.

    ``merge_strategy`` of ``"auto"`` means "whatever the engine's builtin
    heuristic picks" -- the static plan.  Everything the plan decides is
    score-neutral: join order and merge strategy change which cursor
    operations run, never which node ids or scores come out.
    """

    key: str
    engine: str
    language_class: str
    optimizer: str
    provenance: str  # "optimized" | "static" | "cached"
    access_mode: str
    merge_strategy: str = MERGE_AUTO
    join_order: tuple[str, ...] = ()
    estimates: tuple[TokenEstimate, ...] = ()
    estimated_cost: float | None = None
    decides: tuple[str, ...] = field(default=())

    # ------------------------------------------------------- engine queries
    def order_for(self, tokens: Sequence[str]) -> list[int] | None:
        """Merge order (indices into ``tokens``) or None for builtin order.

        Only answers when the plan's join order covers exactly the tokens
        the engine is about to merge -- a mismatch (e.g. the engine flattened
        differently than the planner) falls back to the builtin heuristic
        rather than guessing.
        """
        if not self.join_order:
            return None
        if sorted(self.join_order) != sorted(tokens):
            return None
        remaining: dict[str, list[int]] = {}
        for index, token in enumerate(tokens):
            remaining.setdefault(token, []).append(index)
        order: list[int] = []
        for token in self.join_order:
            slots = remaining.get(token)
            if not slots:
                return None
            order.append(slots.pop(0))
        return order

    def use_zigzag(self) -> bool | None:
        """True/False when the plan decided the merge; None for builtin."""
        if self.merge_strategy == MERGE_ZIGZAG:
            return True
        if self.merge_strategy == MERGE_SEQUENTIAL:
            return False
        return None

    # ------------------------------------------------------------ reporting
    def describe(self) -> dict[str, object]:
        """The plan section of EXPLAIN / slow-query log entries."""
        payload: dict[str, object] = {
            "key": self.key,
            "engine": self.engine,
            "language_class": self.language_class,
            "optimizer": self.optimizer,
            "provenance": self.provenance,
            "access_mode": self.access_mode,
            "merge_strategy": self.merge_strategy,
        }
        if self.join_order:
            payload["join_order"] = list(self.join_order)
        if self.decides:
            payload["decides"] = list(self.decides)
        if self.estimated_cost is not None:
            payload["estimated_cost"] = round(self.estimated_cost, 3)
        if self.estimates:
            payload["tokens"] = [e.as_dict() for e in self.estimates]
        return payload
