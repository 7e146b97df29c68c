"""Search results returned by the high-level engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.index.cursor import CursorStats
from repro.languages.classify import LanguageClass


@dataclass(frozen=True)
class SearchResult:
    """One matching context node."""

    node_id: int
    score: float = 0.0
    preview: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SearchResult(node={self.node_id}, score={self.score:.4f})"


@dataclass
class SearchResults:
    """The ranked answer to one search, plus evaluation metadata."""

    query_text: str
    results: list[SearchResult]
    language_class: LanguageClass
    engine: str
    elapsed_seconds: float
    cursor_stats: CursorStats | None = None
    total_matches: int = 0
    metadata: dict = field(default_factory=dict)
    #: Physical-plan provenance payload
    #: (:meth:`~repro.planner.physical.PhysicalPlan.describe`); ``None``
    #: for COMP, which runs without a plan.
    plan: dict | None = None

    def __post_init__(self) -> None:
        if not self.total_matches:
            self.total_matches = len(self.results)

    # ------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __bool__(self) -> bool:
        return bool(self.results)

    @property
    def node_ids(self) -> list[int]:
        """Node ids of the returned results, in rank order."""
        return [result.node_id for result in self.results]

    @property
    def scores(self) -> dict[int, float]:
        """Node id -> score for the returned results."""
        return {result.node_id: result.score for result in self.results}

    def top(self, count: int) -> "SearchResults":
        """A copy limited to the ``count`` best results."""
        return SearchResults(
            query_text=self.query_text,
            results=self.results[:count],
            language_class=self.language_class,
            engine=self.engine,
            elapsed_seconds=self.elapsed_seconds,
            cursor_stats=self.cursor_stats,
            total_matches=self.total_matches,
            metadata=dict(self.metadata),
            plan=self.plan,
        )

    def summary(self) -> str:
        """One-line human-readable summary (used by the examples)."""
        return (
            f"{self.total_matches} match(es) for {self.query_text!r} "
            f"[{self.language_class.value} via {self.engine}, "
            f"{self.elapsed_seconds * 1000:.2f} ms]"
        )
