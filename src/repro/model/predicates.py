"""Position-based predicates and their classification.

The calculus/algebra are parameterised by an extensible set ``Preds`` of
position-based predicates (paper, Section 2.2).  This module provides:

* the :class:`Predicate` base class -- a named, fixed-arity boolean function
  over :class:`~repro.model.positions.Position` tuples plus constants;
* the paper's example predicates: ``distance``, ``ordered``, ``samepara``,
  ``samesentence``, ``diffpos``, ``window`` and their negations
  (``not_distance``, ``not_ordered``, ``not_samepara``, ``not_samesentence``,
  ``samepos``);
* the *positive* / *negative* classification (Definitions in Sections 5.5.2
  and 5.6.1) together with the ``f_i`` advance functions that the PPRED and
  NPRED evaluation algorithms rely on to skip over regions of the position
  space;
* a :class:`PredicateRegistry` so user-defined predicates can be plugged in.

Advance-hint contract
---------------------
For a **positive** predicate that is false at ``positions``,
:meth:`Predicate.advance_hints` returns a mapping ``{i: target_offset}`` such
that (a) no tuple with ``p_i`` in ``[positions[i].offset, target_offset)`` and
the other positions ≥ their current values satisfies the predicate, and (b) at
least one target strictly exceeds the current offset.  The PPRED select
operator may therefore advance any hinted position to at least its target
without missing solutions.

For a **negative** predicate that is false at ``positions``,
:meth:`Predicate.advance_target` returns, for the index holding the largest
position, the minimal offset that could make the predicate true with the
remaining positions fixed (the NPRED algorithm only ever moves the largest
position under the cursor ordering it enforces).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.exceptions import PredicateError
from repro.model.positions import Position, intervening_tokens


class Polarity(enum.Enum):
    """Classification of a predicate for the evaluation algorithms."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    GENERAL = "general"


@dataclass(frozen=True)
class PredicateSignature:
    """Arity information: number of position arguments and constant arguments."""

    num_positions: int
    num_constants: int = 0


class Predicate:
    """Base class for position-based predicates.

    Subclasses implement :meth:`holds`; positive predicates should override
    :meth:`advance_hints` and negative predicates :meth:`advance_target` to
    give the evaluation engines better-than-single-step skips (the defaults
    advance one position by a single offset, which is always correct but
    may be slower).
    """

    name: str = "predicate"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.GENERAL

    # ------------------------------------------------------------- interface
    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        """Evaluate the predicate on concrete positions and constants."""
        raise NotImplementedError

    def advance_hints(
        self, positions: Sequence[Position], constants: Sequence[object]
    ) -> dict[int, int]:
        """Advance targets for a *positive* predicate that is currently false.

        The default hint moves the smallest position forward by one offset,
        which satisfies the positive-predicate property trivially.
        """
        smallest = min(range(len(positions)), key=lambda i: positions[i].offset)
        return {smallest: positions[smallest].offset + 1}

    def advance_target(
        self,
        positions: Sequence[Position],
        constants: Sequence[object],
        index: int,
    ) -> int:
        """Minimal offset for ``positions[index]`` that could satisfy a
        *negative* predicate, all other positions staying fixed.

        The default is a single-step advance.
        """
        return positions[index].offset + 1

    # ------------------------------------------------------------ validation
    def check_arity(
        self, positions: Sequence[object], constants: Sequence[object]
    ) -> None:
        """Raise :class:`PredicateError` if the argument counts are wrong."""
        if len(positions) != self.signature.num_positions:
            raise PredicateError(
                f"{self.name} expects {self.signature.num_positions} position "
                f"arguments, got {len(positions)}"
            )
        if len(constants) != self.signature.num_constants:
            raise PredicateError(
                f"{self.name} expects {self.signature.num_constants} constant "
                f"arguments, got {len(constants)}"
            )

    def __call__(
        self, positions: Sequence[Position], constants: Sequence[object] = ()
    ) -> bool:
        self.check_arity(positions, constants)
        return self.holds(positions, constants)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Predicate {self.name} ({self.polarity.value})>"


# --------------------------------------------------------------------------
# Positive predicates
# --------------------------------------------------------------------------
class DistancePredicate(Predicate):
    """``distance(p1, p2, d)``: at most ``d`` intervening tokens between p1, p2."""

    name = "distance"
    signature = PredicateSignature(num_positions=2, num_constants=1)
    polarity = Polarity.POSITIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        limit = int(constants[0])
        return intervening_tokens(positions[0], positions[1]) <= limit

    def advance_hints(
        self, positions: Sequence[Position], constants: Sequence[object]
    ) -> dict[int, int]:
        # Paper, Section 5.5.2: move the smaller position forward; all tuples
        # with the smaller position unchanged and the other >= current fail.
        p1, p2 = positions
        if p1.offset < p2.offset:
            return {0: p1.offset + 1}
        if p2.offset < p1.offset:
            return {1: p2.offset + 1}
        # Equal offsets always satisfy distance >= 0, so this is unreachable
        # for non-negative limits; advance either to stay safe.
        return {0: p1.offset + 1}


class WindowPredicate(Predicate):
    """``window(p1, .., pn, w)``: all positions fit in a window of ``w`` tokens.

    A window of ``w`` means ``max(offset) - min(offset) <= w``.  With two
    positions and ``w = d + 1`` this coincides with ``distance(p1, p2, d)``;
    the n-ary form is the "window" predicate mentioned in Section 5.5.1.
    """

    name = "window"
    signature = PredicateSignature(num_positions=2, num_constants=1)
    polarity = Polarity.POSITIVE

    def __init__(self, num_positions: int = 2) -> None:
        if num_positions < 2:
            raise PredicateError("window needs at least two position arguments")
        self.signature = PredicateSignature(num_positions, num_constants=1)

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        width = int(constants[0])
        offsets = [pos.offset for pos in positions]
        return max(offsets) - min(offsets) <= width

    def advance_hints(
        self, positions: Sequence[Position], constants: Sequence[object]
    ) -> dict[int, int]:
        offsets = [pos.offset for pos in positions]
        smallest = offsets.index(min(offsets))
        return {smallest: offsets[smallest] + 1}


class OrderedPredicate(Predicate):
    """``ordered(p1, p2)``: p1 occurs strictly before p2."""

    name = "ordered"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.POSITIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return positions[0].offset < positions[1].offset

    def advance_hints(
        self, positions: Sequence[Position], constants: Sequence[object]
    ) -> dict[int, int]:
        # False means p2 <= p1: no tuple with p2 in [p2, p1] and p1 >= current
        # satisfies the predicate, so p2 can jump past p1.
        return {1: positions[0].offset + 1}


class SameParagraphPredicate(Predicate):
    """``samepara(p1, p2)``: both positions lie in the same paragraph."""

    name = "samepara"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.POSITIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return positions[0].paragraph == positions[1].paragraph

    def advance_hints(
        self, positions: Sequence[Position], constants: Sequence[object]
    ) -> dict[int, int]:
        # Paragraph ordinals are monotone in the offset, so when the
        # paragraphs differ the position in the *earlier* paragraph must move
        # forward (at least one step; it cannot reach the later paragraph
        # without its offset growing).
        p1, p2 = positions
        earlier = 0 if p1.paragraph < p2.paragraph else 1
        return {earlier: positions[earlier].offset + 1}


class SameSentencePredicate(Predicate):
    """``samesentence(p1, p2)``: both positions lie in the same sentence."""

    name = "samesentence"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.POSITIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return positions[0].sentence == positions[1].sentence

    def advance_hints(
        self, positions: Sequence[Position], constants: Sequence[object]
    ) -> dict[int, int]:
        p1, p2 = positions
        earlier = 0 if p1.sentence < p2.sentence else 1
        return {earlier: positions[earlier].offset + 1}


class DiffPosPredicate(Predicate):
    """``diffpos(p1, p2)``: the two positions are different.

    Although listed among the paper's example predicates, ``diffpos`` is a
    *negative* predicate under the Section 5.5.2 / 5.6.1 definitions: it is
    falsified only on the diagonal, and making it true requires *extending*
    the gap between the positions -- which position must move depends on the
    data, exactly the non-determinism the NPRED cursor orderings resolve.
    (A single-scan PPRED evaluation that always advanced one fixed position
    could miss solutions.)
    """

    name = "diffpos"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.NEGATIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return positions[0].offset != positions[1].offset

    def advance_target(
        self,
        positions: Sequence[Position],
        constants: Sequence[object],
        index: int,
    ) -> int:
        # False only when the offsets coincide; one step past the tie is the
        # minimal advance that can satisfy the predicate.
        return positions[index].offset + 1


# --------------------------------------------------------------------------
# Negative predicates (Section 5.6.1)
# --------------------------------------------------------------------------
class NotDistancePredicate(Predicate):
    """``not_distance(p1, p2, d)``: strictly more than ``d`` intervening tokens."""

    name = "not_distance"
    signature = PredicateSignature(num_positions=2, num_constants=1)
    polarity = Polarity.NEGATIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        limit = int(constants[0])
        return intervening_tokens(positions[0], positions[1]) > limit

    def advance_target(
        self,
        positions: Sequence[Position],
        constants: Sequence[object],
        index: int,
    ) -> int:
        limit = int(constants[0])
        other = positions[1 - index]
        # The moved position must leave more than `limit` intervening tokens
        # after the fixed one: offset >= other + limit + 2.
        return max(positions[index].offset + 1, other.offset + limit + 2)


class NotOrderedPredicate(Predicate):
    """``not_ordered(p1, p2)``: p1 does *not* occur strictly before p2."""

    name = "not_ordered"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.NEGATIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return positions[0].offset >= positions[1].offset

    def advance_target(
        self,
        positions: Sequence[Position],
        constants: Sequence[object],
        index: int,
    ) -> int:
        if index == 0:
            # Moving p1 to at least p2 satisfies p1 >= p2.
            return max(positions[0].offset + 1, positions[1].offset)
        # Moving p2 (the larger in this thread) can never satisfy p1 >= p2;
        # return a single step so the scan terminates by exhausting the list.
        return positions[1].offset + 1


class NotSameParagraphPredicate(Predicate):
    """``not_samepara(p1, p2)``: the positions lie in different paragraphs."""

    name = "not_samepara"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.NEGATIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return positions[0].paragraph != positions[1].paragraph

    def advance_target(
        self,
        positions: Sequence[Position],
        constants: Sequence[object],
        index: int,
    ) -> int:
        return positions[index].offset + 1


class NotSameSentencePredicate(Predicate):
    """``not_samesentence(p1, p2)``: the positions lie in different sentences."""

    name = "not_samesentence"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.NEGATIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return positions[0].sentence != positions[1].sentence

    def advance_target(
        self,
        positions: Sequence[Position],
        constants: Sequence[object],
        index: int,
    ) -> int:
        return positions[index].offset + 1


class SamePosPredicate(Predicate):
    """``samepos(p1, p2)``: the two positions coincide (negation of diffpos).

    ``samepos`` *is* a positive predicate: when the positions differ, the
    smaller one can be advanced all the way to the larger one without
    skipping any solution (equality requires catching up), so it can be
    evaluated by the single-scan PPRED algorithm.
    """

    name = "samepos"
    signature = PredicateSignature(num_positions=2)
    polarity = Polarity.POSITIVE

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return positions[0].offset == positions[1].offset

    def advance_hints(
        self, positions: Sequence[Position], constants: Sequence[object]
    ) -> dict[int, int]:
        p1, p2 = positions
        if p1.offset < p2.offset:
            return {0: p2.offset}
        return {1: p1.offset}


# --------------------------------------------------------------------------
# Generic wrappers
# --------------------------------------------------------------------------
class FunctionPredicate(Predicate):
    """Wrap an arbitrary Python callable as a (general) predicate.

    User extensions that do not fit the positive/negative classification can
    still be used by the calculus, the algebra and the naive COMP engine.
    """

    def __init__(
        self,
        name: str,
        num_positions: int,
        func: Callable[[Sequence[Position], Sequence[object]], bool],
        num_constants: int = 0,
        polarity: Polarity = Polarity.GENERAL,
    ) -> None:
        self.name = name
        self.signature = PredicateSignature(num_positions, num_constants)
        self.polarity = polarity
        self._func = func

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return self._func(positions, constants)


class NegatedPredicate(Predicate):
    """The logical negation of another predicate (classified as GENERAL).

    This is distinct from the hand-written ``not_*`` predicates above: those
    carry NEGATIVE advance semantics, whereas a generic negation makes no
    promise about skip regions and therefore can only be used by COMP (the
    calculus) and the naive algebra engine.
    """

    def __init__(self, inner: Predicate) -> None:
        self.name = f"neg_{inner.name}"
        self.signature = inner.signature
        self.polarity = Polarity.GENERAL
        self.inner = inner

    def holds(self, positions: Sequence[Position], constants: Sequence[object]) -> bool:
        return not self.inner.holds(positions, constants)


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------
class PredicateRegistry:
    """Name → predicate lookup used by parsers, translators and engines."""

    def __init__(self, predicates: Iterable[Predicate] = ()) -> None:
        self._by_name: dict[str, Predicate] = {}
        for predicate in predicates:
            self.register(predicate)

    def register(self, predicate: Predicate, replace: bool = False) -> None:
        """Register ``predicate`` under its name."""
        if predicate.name in self._by_name and not replace:
            raise PredicateError(f"predicate {predicate.name!r} already registered")
        self._by_name[predicate.name] = predicate

    def get(self, name: str) -> Predicate:
        """Look a predicate up by name; raise :class:`PredicateError` if absent."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise PredicateError(f"unknown predicate {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        """All registered predicate names, sorted."""
        return sorted(self._by_name)

    def polarity_of(self, name: str) -> Polarity:
        """Polarity classification of a registered predicate."""
        return self.get(name).polarity

    def copy(self) -> "PredicateRegistry":
        """A shallow copy that can be extended without affecting the original."""
        return PredicateRegistry(self._by_name.values())


#: Mapping from each built-in positive predicate to its negative counterpart.
NEGATION_PAIRS: Mapping[str, str] = {
    "distance": "not_distance",
    "ordered": "not_ordered",
    "samepara": "not_samepara",
    "samesentence": "not_samesentence",
    "diffpos": "samepos",
}


def default_registry() -> PredicateRegistry:
    """A registry holding every built-in predicate of the paper."""
    return PredicateRegistry(
        [
            DistancePredicate(),
            WindowPredicate(),
            OrderedPredicate(),
            SameParagraphPredicate(),
            SameSentencePredicate(),
            DiffPosPredicate(),
            NotDistancePredicate(),
            NotOrderedPredicate(),
            NotSameParagraphPredicate(),
            NotSameSentencePredicate(),
            SamePosPredicate(),
        ]
    )


def negation_name(name: str) -> str | None:
    """The name of the built-in negation of ``name`` (either direction), if any."""
    if name in NEGATION_PAIRS:
        return NEGATION_PAIRS[name]
    for positive, negative in NEGATION_PAIRS.items():
        if negative == name:
            return positive
    return None
