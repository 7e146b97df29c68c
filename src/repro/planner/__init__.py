"""``repro.planner``: the first-class query planning layer.

Everything strategy-shaped that used to live as static heuristics inside
the engines (rarest-first join order, the zig-zag selectivity ratio) is
owned here:

* :mod:`repro.planner.ir` -- the unified logical-plan IR: canonicalisation
  that maps commuted/re-associated AND/OR variants to one plan key;
* :mod:`repro.planner.cost` -- the cursor-op cost model over document
  frequencies;
* :mod:`repro.planner.physical` / :mod:`repro.planner.optimizer` -- the
  :class:`PhysicalPlan` artifact and the :class:`QueryPlanner`
  that produces it.

Two optimizer modes thread through the CLI, server, and benches: ``"off"``
(the default: a plan artifact is built and reported but every choice
defers to the engines' builtin heuristics) and ``"on"`` (join order, merge
strategy and the paper→fast upgrade chosen from raw document frequencies).
The house invariant: both produce bit-identical ids, scores, and order.
"""

from __future__ import annotations

from repro.exceptions import EvaluationError
from repro.planner.ir import canonical_key, canonicalize
from repro.planner.optimizer import QueryPlanner
from repro.planner.physical import PhysicalPlan, TokenEstimate

OPTIMIZER_ON = "on"
OPTIMIZER_OFF = "off"
OPTIMIZER_MODES = (OPTIMIZER_ON, OPTIMIZER_OFF)
DEFAULT_OPTIMIZER = OPTIMIZER_OFF


def check_optimizer_mode(mode: str) -> str:
    """Validate an optimizer mode string, returning it unchanged."""
    if mode not in OPTIMIZER_MODES:
        raise EvaluationError(
            f"unknown optimizer mode {mode!r}; expected 'on' or 'off'"
        )
    return mode


__all__ = [
    "OPTIMIZER_ON",
    "OPTIMIZER_OFF",
    "OPTIMIZER_MODES",
    "DEFAULT_OPTIMIZER",
    "check_optimizer_mode",
    "canonicalize",
    "canonical_key",
    "PhysicalPlan",
    "TokenEstimate",
    "QueryPlanner",
]
