"""Experiment harness: workloads, figure and ablation sweeps, replay."""

from repro.bench.capture import (
    WorkloadCapture,
    load_workload,
    query_pool_from_collection,
    synthetic_zipf_workload,
)

from repro.bench.complexity import (
    HIERARCHY,
    QueryParameters,
    bool_bound,
    bool_noneg_bound,
    comp_bound,
    dominates,
    hierarchy_table,
    npred_bound,
    ppred_bound,
)
from repro.bench.figures import (
    ALL_FIGURES,
    FigureScale,
    ablation_npred_orders,
    ablation_scoring,
    figure5,
    figure6,
    figure7,
    figure8,
    run_all,
)
from repro.bench.harness import (
    SERIES,
    ExperimentHarness,
    ExperimentPoint,
    ExperimentTable,
    Measurement,
)
from repro.bench.replay import (
    EngineTarget,
    HttpTarget,
    render_replay_report,
    replay_workload,
)
from repro.bench.reporting import (
    ordering_check,
    render_report,
    shape_summary,
    table_to_csv,
    table_to_text,
)
from repro.bench.workload import (
    NEGATIVE_PREDICATES,
    POSITIVE_PREDICATES,
    WorkloadSpec,
    bool_query,
    predicate_query,
    workload_queries,
)

__all__ = [
    "HIERARCHY",
    "QueryParameters",
    "bool_bound",
    "bool_noneg_bound",
    "comp_bound",
    "dominates",
    "hierarchy_table",
    "npred_bound",
    "ppred_bound",
    "ALL_FIGURES",
    "FigureScale",
    "ablation_npred_orders",
    "ablation_scoring",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "run_all",
    "SERIES",
    "ExperimentHarness",
    "ExperimentPoint",
    "ExperimentTable",
    "Measurement",
    "ordering_check",
    "render_report",
    "shape_summary",
    "table_to_csv",
    "table_to_text",
    "NEGATIVE_PREDICATES",
    "POSITIVE_PREDICATES",
    "WorkloadSpec",
    "bool_query",
    "predicate_query",
    "workload_queries",
    "WorkloadCapture",
    "load_workload",
    "query_pool_from_collection",
    "synthetic_zipf_workload",
    "EngineTarget",
    "HttpTarget",
    "render_replay_report",
    "replay_workload",
]
