"""The analytic complexity hierarchy of Figure 3.

Each function returns the paper's upper bound on the number of elementary
operations performed by one evaluation algorithm, expressed in the data-size
parameters of Section 5.1.2 (``cnodes``, ``pos_per_cnode``,
``entries_per_token``, ``pos_per_entry``) and the query-size parameters
(``toks_Q``, ``preds_Q``, ``ops_Q``).

:func:`hierarchy_table` evaluates them for ``repro experiment --figure 3``
(``repro stats`` prints an index's own data-size parameters under
``"complexity"``); the measured Figures 5--8 show the same shapes (e.g.
PPRED grows linearly in ``pos_per_entry`` while COMP grows polynomially in
``pos_per_cnode``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.index.statistics import ComplexityParameters


@dataclass(frozen=True)
class QueryParameters:
    """Query-size parameters of the complexity model."""

    toks_q: int
    preds_q: int = 0
    ops_q: int = 0

    @property
    def operator_factor(self) -> int:
        """The common ``(preds_Q + ops_Q + 1)`` factor."""
        return self.preds_q + self.ops_q + 1


def bool_noneg_bound(data: ComplexityParameters, query: QueryParameters) -> float:
    """BOOL-NONEG: ``entries_per_token · toks_Q · (ops_Q + 1)``."""
    return data.entries_per_token * query.toks_q * (query.ops_q + 1)


def bool_bound(data: ComplexityParameters, query: QueryParameters) -> float:
    """BOOL: ``cnodes · toks_Q · (ops_Q + 1)`` (NOT/ANY read IL_ANY)."""
    return data.cnodes * query.toks_q * (query.ops_q + 1)


def ppred_bound(data: ComplexityParameters, query: QueryParameters) -> float:
    """PPRED: ``entries_per_token · pos_per_entry · toks_Q · (preds_Q+ops_Q+1)``."""
    return (
        data.entries_per_token
        * data.pos_per_entry
        * query.toks_q
        * query.operator_factor
    )


def npred_bound(
    data: ComplexityParameters, query: QueryParameters, arity: int = 2
) -> float:
    """NPRED: PPRED bound times ``min(arity^preds_Q, toks_Q!)`` evaluation threads."""
    threads = min(arity**query.preds_q, math.factorial(query.toks_q))
    return ppred_bound(data, query) * max(threads, 1)


def comp_bound(data: ComplexityParameters, query: QueryParameters) -> float:
    """COMP: ``cnodes · pos_per_cnode^{toks_Q} · (preds_Q + ops_Q + 1)``."""
    return (
        data.cnodes
        * (data.pos_per_cnode ** query.toks_q)
        * query.operator_factor
    )


#: Name -> bound function, in increasing order of expressiveness (Figure 3).
HIERARCHY = {
    "BOOL-NONEG": bool_noneg_bound,
    "BOOL": bool_bound,
    "PPRED": ppred_bound,
    "NPRED": npred_bound,
    "COMP": comp_bound,
}


def hierarchy_table(
    data: ComplexityParameters, query: QueryParameters
) -> list[tuple[str, float]]:
    """The analytic bound of every language for the given parameters."""
    return [(name, bound(data, query)) for name, bound in HIERARCHY.items()]


def dominates(
    faster: str, slower: str, data: ComplexityParameters, query: QueryParameters
) -> bool:
    """True iff the analytic bound of ``faster`` is <= the bound of ``slower``."""
    return HIERARCHY[faster](data, query) <= HIERARCHY[slower](data, query)
