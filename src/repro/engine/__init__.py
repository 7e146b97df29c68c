"""Evaluation engines: BOOL merge, PPRED single-scan, NPRED ordering trials,
naive COMP (the figures' instrument and second oracle; COMP runs the calculus)."""

from repro.engine.bool_engine import BoolEngine
from repro.engine.executor import (
    AUTO,
    ENGINE_CLASS,
    NATIVE_ENGINE,
    EvaluationResult,
    Executor,
)
from repro.engine.naive_engine import NaiveCompEngine, NaiveEvaluation
from repro.engine.npred_engine import NPredEngine
from repro.engine.operators import (
    BlockOperator,
    BoundPredicate,
    JoinOperator,
    NodeDifferenceOperator,
    NodeUnionOperator,
    PlanOperator,
    ScanOperator,
    ZigZagJoinOperator,
    collect_nodes,
    rarest_first_order,
    zigzag_node_intersect,
)
from repro.engine.plan import (
    BlockPlan,
    DifferencePlan,
    IntersectPlan,
    PredicateSpec,
    UnionPlan,
    describe_plan,
    extract_plan,
    plan_blocks,
    plan_polarities,
)
from repro.engine.ppred_engine import PPredEngine
from repro.engine.topk import TopKCollector, check_top_k

__all__ = [
    "TopKCollector",
    "check_top_k",
    "BoolEngine",
    "AUTO",
    "ENGINE_CLASS",
    "NATIVE_ENGINE",
    "EvaluationResult",
    "Executor",
    "NaiveCompEngine",
    "NaiveEvaluation",
    "NPredEngine",
    "BlockOperator",
    "BoundPredicate",
    "JoinOperator",
    "NodeDifferenceOperator",
    "NodeUnionOperator",
    "PlanOperator",
    "ScanOperator",
    "ZigZagJoinOperator",
    "collect_nodes",
    "rarest_first_order",
    "zigzag_node_intersect",
    "BlockPlan",
    "DifferencePlan",
    "IntersectPlan",
    "PredicateSpec",
    "UnionPlan",
    "describe_plan",
    "extract_plan",
    "plan_blocks",
    "plan_polarities",
    "PPredEngine",
]
