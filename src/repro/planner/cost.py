"""The planner's cost model.

Costs are measured in abstract *cursor operations* -- the same unit
:class:`~repro.index.cursor.CursorStats` counts -- so EXPLAIN ANALYZE can
show an estimate directly next to the observed op count of the same
query.  Two access patterns compete for a conjunction of posting lists:

* **sequential merge** (the paper's algorithm): every list is walked end to
  end, so the cost is simply the sum of the document frequencies;
* **zig-zag merge** (PR 1's galloping intersection): the rarest list leads
  and each other list is probed once per lead entry, with galloping +
  binary search costing ``O(log(gap))`` probes per seek.

The break-even point between the two is what the old static heuristic
(``BoolEngine.ZIGZAG_SELECTIVITY_RATIO == 6``) hard-coded; here it falls
out of the model.
"""

from __future__ import annotations

from math import log2
from typing import Sequence

# One sequential ``next_entry`` step.  The unit of the whole model.
SEQ_UNIT = 1.0
# One seek (galloping probe + binary-search step).  Seeks touch the skip
# table and do more comparisons than a plain step, so they are charged a
# premium.  2.0 puts the two-list break-even between df ratios 4 and 6 --
# measured on the synthetic corpora, ratio-4 zig-zags lose to the
# sequential merge and ratio-6 ones win, which is also where the engines'
# static ``ZIGZAG_SELECTIVITY_RATIO == 6`` threshold sits.
SEEK_UNIT = 2.0


def sequential_cost(counts: Sequence[float]) -> float:
    """Cost of a full sequential merge: every entry of every list is visited."""
    return SEQ_UNIT * float(sum(counts))


def seek_cost(lead: float, other: float) -> float:
    """Cost of zig-zag probing one non-lead list of length ``other``.

    The lead drives ``lead`` seeks into the other list; galloping makes each
    seek logarithmic in the average gap ``other / lead``.  ``max(1, ...)``
    keeps a floor of one probe per seek even when the other list is the
    shorter one (the merge still has to look at it).
    """
    if lead <= 0:
        return 0.0
    gap = other / lead
    return SEEK_UNIT * lead * max(1.0, log2(gap + 1.0))


def zigzag_cost(counts: Sequence[float]) -> float:
    """Cost of a rarest-first zig-zag merge over lists of these lengths."""
    if not counts:
        return 0.0
    ordered = sorted(counts)
    lead = float(ordered[0])
    total = SEQ_UNIT * lead
    for other in ordered[1:]:
        total += seek_cost(lead, float(other))
    return total


def merge_decision(
    counts: Sequence[float],
) -> tuple[str, float, float]:
    """Pick the cheaper merge: ``(strategy, chosen_cost, rejected_cost)``.

    ``strategy`` is ``"zigzag"`` or ``"sequential"``.  With fewer than two
    lists there is nothing to merge and the sequential cost is returned for
    both (a single scan is a single scan either way).
    """
    seq = sequential_cost(counts)
    if len(counts) < 2:
        return "sequential", seq, seq
    zig = zigzag_cost(counts)
    if zig <= seq:
        return "zigzag", zig, seq
    return "sequential", seq, zig

