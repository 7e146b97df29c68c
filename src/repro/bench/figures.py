"""Parameter sweeps regenerating the paper's Figures 5--8 and the ablations.

Each ``figureN`` function builds the synthetic INEX-like collection(s) for the
sweep, runs the series of Section 6 through the
:class:`~repro.bench.harness.ExperimentHarness`, and returns an
:class:`~repro.bench.harness.ExperimentTable` whose rows mirror the figure.

Two design ablations are tables of the same kind: NPRED ordering trials
per node over the necessary orders only vs every total order
(:func:`ablation_npred_orders`), and the cost of score propagation
(:func:`ablation_scoring`).  The third ablation -- PPRED's advance hints
against COMP's materialisation -- is Figure 8's PPRED-POS vs COMP-POS
columns and needs no table of its own.

Scale: the paper uses the 500 MB INEX collection (default 6000 context nodes,
query tokens with up to 25/125 positions per entry).  A pure-Python naive
COMP evaluation at that scale would take hours, so the *default* parameters
here are scaled down (a few hundred nodes, small position counts) -- enough to
reproduce the curve *shapes* (who wins, linear vs super-linear growth) in a
few seconds.  Every function accepts a :class:`FigureScale` to run closer to
paper scale when time permits; ``FigureScale.paper()`` gives the paper's
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.corpus.synthetic import DEFAULT_QUERY_TOKENS, generate_inex_like_collection
from repro.index.inverted_index import InvertedIndex
from repro.scoring.base import get_model
from repro.bench.harness import (
    SERIES,
    ExperimentHarness,
    ExperimentPoint,
    ExperimentTable,
)
from repro.bench.workload import workload_queries


@dataclass(frozen=True)
class FigureScale:
    """Dataset/query sizes for a sweep.

    ``laptop()`` (the default) keeps every sweep under a few seconds in pure
    Python; ``paper()`` mirrors the INEX experiment sizes.
    """

    num_nodes: int = 400
    tokens_per_node: int = 120
    pos_per_entry: int = 4
    document_frequency: float = 0.6
    default_tokens: int = 3
    default_predicates: int = 2
    token_counts: tuple[int, ...] = (1, 2, 3, 4, 5)
    predicate_counts: tuple[int, ...] = (0, 1, 2, 3, 4)
    node_counts: tuple[int, ...] = (100, 250, 400)
    pos_per_entry_values: tuple[int, ...] = (2, 4, 8)
    query_tokens: Sequence[str] = field(default=DEFAULT_QUERY_TOKENS)
    repeats: int = 1
    seed: int = 20060330

    @classmethod
    def laptop(cls) -> "FigureScale":
        return cls()

    @classmethod
    def smoke(cls) -> "FigureScale":
        """Tiny sizes for unit tests of the harness itself."""
        return cls(
            num_nodes=60,
            tokens_per_node=60,
            pos_per_entry=2,
            token_counts=(1, 2, 3),
            predicate_counts=(0, 1, 2),
            node_counts=(30, 60),
            pos_per_entry_values=(2, 3),
        )

    @classmethod
    def paper(cls) -> "FigureScale":
        """The INEX experiment sizes (minutes to hours in pure Python)."""
        return cls(
            num_nodes=6000,
            tokens_per_node=400,
            pos_per_entry=25,
            node_counts=(2500, 6000, 10000),
            pos_per_entry_values=(5, 25, 125),
        )

    def collection(self, num_nodes: int | None = None, pos_per_entry: int | None = None):
        return generate_inex_like_collection(
            num_nodes=num_nodes or self.num_nodes,
            tokens_per_node=self.tokens_per_node,
            pos_per_entry=pos_per_entry or self.pos_per_entry,
            document_frequency=self.document_frequency,
            query_tokens=self.query_tokens,
            seed=self.seed,
        )


def _harness(index: InvertedIndex, scale: FigureScale) -> ExperimentHarness:
    return ExperimentHarness(index, repeats=scale.repeats)


def figure5(scale: FigureScale | None = None, series: Sequence[str] = SERIES) -> ExperimentTable:
    """Figure 5: evaluation time vs number of query tokens (data fixed)."""
    scale = scale or FigureScale.laptop()
    index = InvertedIndex(scale.collection())
    harness = _harness(index, scale)
    table = ExperimentTable("Figure 5: varying number of query tokens", "query tokens")
    for num_tokens in scale.token_counts:
        num_predicates = min(scale.default_predicates, max(num_tokens - 1, 0))
        table.points.append(
            harness.run_point(
                num_tokens, scale.query_tokens, num_tokens, num_predicates, series
            )
        )
    return table


def figure6(scale: FigureScale | None = None, series: Sequence[str] = SERIES) -> ExperimentTable:
    """Figure 6: evaluation time vs number of query predicates (data fixed)."""
    scale = scale or FigureScale.laptop()
    index = InvertedIndex(scale.collection())
    harness = _harness(index, scale)
    table = ExperimentTable(
        "Figure 6: varying number of query predicates", "query predicates"
    )
    for num_predicates in scale.predicate_counts:
        table.points.append(
            harness.run_point(
                num_predicates,
                scale.query_tokens,
                scale.default_tokens,
                num_predicates,
                series,
            )
        )
    return table


def figure7(scale: FigureScale | None = None, series: Sequence[str] = SERIES) -> ExperimentTable:
    """Figure 7: evaluation time vs number of context nodes (query fixed)."""
    scale = scale or FigureScale.laptop()
    table = ExperimentTable("Figure 7: varying number of context nodes", "context nodes")
    for num_nodes in scale.node_counts:
        index = InvertedIndex(scale.collection(num_nodes=num_nodes))
        harness = _harness(index, scale)
        table.points.append(
            harness.run_point(
                num_nodes,
                scale.query_tokens,
                scale.default_tokens,
                scale.default_predicates,
                series,
            )
        )
    return table


def figure8(scale: FigureScale | None = None, series: Sequence[str] = SERIES) -> ExperimentTable:
    """Figure 8: evaluation time vs positions per inverted-list entry."""
    scale = scale or FigureScale.laptop()
    table = ExperimentTable(
        "Figure 8: varying positions per inverted-list entry", "positions per entry"
    )
    for pos_per_entry in scale.pos_per_entry_values:
        index = InvertedIndex(scale.collection(pos_per_entry=pos_per_entry))
        harness = _harness(index, scale)
        table.points.append(
            harness.run_point(
                pos_per_entry,
                scale.query_tokens,
                scale.default_tokens,
                scale.default_predicates,
                series,
            )
        )
    return table


def ablation_npred_orders(scale: FigureScale | None = None) -> ExperimentTable:
    """NPRED trials per node: the necessary orders only vs every total order.

    One ``not_distance`` over the first two of 2, 3 and 4 query tokens: the
    other tokens take part in no predicate, which is where generating only
    the necessary orders (the paper's implementation) beats ``toks_Q!``.
    The engine merges each block once whatever the orders, so both series
    do the same cursor work; they differ only in how many orderings are
    tried on each aligned node (2 against up to 24).
    """
    scale = scale or FigureScale.laptop()
    index = InvertedIndex(scale.collection())
    harnesses = {
        f"NPRED-{orders}": ExperimentHarness(
            index, repeats=scale.repeats, npred_orders=orders
        )
        for orders in ("minimal", "all")
    }
    table = ExperimentTable("Ablation: NPRED orders (minimal vs all)", "query tokens")
    for num_tokens in (2, 3, 4):
        query = workload_queries(scale.query_tokens, num_tokens, 1)["NEGATIVE"]
        point = ExperimentPoint(num_tokens)
        for series, harness in harnesses.items():
            measurement = harness.time_engine("npred", query)
            measurement.series = series
            point.measurements[series] = measurement
        table.points.append(point)
    return table


def ablation_scoring(scale: FigureScale | None = None) -> ExperimentTable:
    """Score propagation overhead: unscored vs TF-IDF vs probabilistic.

    BOOL runs the keyword query, COMP the positive-predicate query, both at
    the scale's default token and predicate counts.
    """
    scale = scale or FigureScale.laptop()
    index = InvertedIndex(scale.collection())
    queries = workload_queries(
        scale.query_tokens, scale.default_tokens, scale.default_predicates
    )
    table = ExperimentTable("Ablation: scoring overhead", "scoring")
    for model in ("unscored", "tfidf", "probabilistic"):
        scoring = None if model == "unscored" else get_model(model, index.statistics)
        harness = ExperimentHarness(index, repeats=scale.repeats, scoring=scoring)
        point = ExperimentPoint(model)
        for series, engine_name, query in (
            ("BOOL", "bool", queries["BOOL"]),
            ("COMP-POS", "comp", queries["POSITIVE"]),
        ):
            measurement = harness.time_engine(engine_name, query)
            measurement.series = series
            point.measurements[series] = measurement
        table.points.append(point)
    return table


ALL_FIGURES = {
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
}


def run_all(scale: FigureScale | None = None) -> dict[str, ExperimentTable]:
    """Run every figure sweep and return the tables keyed by figure name."""
    scale = scale or FigureScale.laptop()
    return {name: func(scale) for name, func in ALL_FIGURES.items()}
