"""Context nodes (documents) for full-text search.

A :class:`ContextNode` is the unit over which a full-text condition is
evaluated -- a document in an IR system, a tuple in a relational database, or
an element in an XML document (paper, Section 2).  The node exposes exactly
the two functions of the paper's formal model:

* ``Positions(n)`` -- the set of token positions in the node
  (:meth:`ContextNode.positions`);
* ``Token(p)``     -- the token stored at a position
  (:meth:`ContextNode.token_at`).

plus convenience accessors used by the index builder and scoring code
(occurrence counts, unique-token counts, per-token position lists).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.corpus.tokenizer import TokenOccurrence, Tokenizer, default_tokenizer
from repro.exceptions import CorpusError
from repro.model.positions import Position


@dataclass(frozen=True)
class ContextNode:
    """A single context node: an id plus its tokenized content.

    Instances are immutable; construct them with :meth:`from_text` (raw text
    run through a tokenizer), :meth:`from_tokens` (a pre-tokenized list of
    token strings) or directly from :class:`TokenOccurrence` objects.
    """

    node_id: int
    occurrences: tuple[TokenOccurrence, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    # -------------------------------------------------------------- builders
    @classmethod
    def from_text(
        cls,
        node_id: int,
        text: str,
        tokenizer: Tokenizer | None = None,
        metadata: Mapping[str, str] | None = None,
    ) -> "ContextNode":
        """Tokenize ``text`` and build a context node from it."""
        tokenizer = tokenizer or default_tokenizer()
        return cls(node_id, tuple(tokenizer.tokenize(text)), dict(metadata or {}))

    @classmethod
    def from_tokens(
        cls,
        node_id: int,
        tokens: Sequence[str],
        sentence_length: int | None = None,
        paragraph_length: int | None = None,
        metadata: Mapping[str, str] | None = None,
    ) -> "ContextNode":
        """Build a node from a flat token sequence.

        ``sentence_length`` / ``paragraph_length`` optionally impose a regular
        structure (every N tokens start a new sentence/paragraph); this is the
        form used by the synthetic-data generator.
        """
        occurrences = []
        for offset, token in enumerate(tokens):
            sentence = offset // sentence_length if sentence_length else 0
            paragraph = offset // paragraph_length if paragraph_length else 0
            occurrences.append(
                TokenOccurrence(token, Position(offset, sentence, paragraph))
            )
        return cls(node_id, tuple(occurrences), dict(metadata or {}))

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise CorpusError(f"node_id must be >= 0, got {self.node_id}")
        last = -1
        for occ in self.occurrences:
            if occ.position.offset <= last:
                raise CorpusError(
                    "token occurrences must have strictly increasing offsets"
                )
            last = occ.position.offset

    # ------------------------------------------------------- model functions
    def positions(self) -> list[Position]:
        """``Positions(n)``: every token position in this node, in order."""
        return [occ.position for occ in self.occurrences]

    def has_position(self, position: Position | int) -> bool:
        """``hasPos(n, p)``: ``position`` is a position of this node."""
        offset = position.offset if isinstance(position, Position) else int(position)
        return offset in self._offset_index()

    def token_at(self, position: Position | int) -> str:
        """``Token(p)``: the token stored at ``position``.

        Raises :class:`CorpusError` if the position does not belong to the
        node.
        """
        offset = position.offset if isinstance(position, Position) else int(position)
        index = self._offset_index().get(offset)
        if index is None:
            raise CorpusError(
                f"position {offset} is not a position of node {self.node_id}"
            )
        return self.occurrences[index].token

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return len(self.occurrences)

    def __iter__(self) -> Iterator[TokenOccurrence]:
        return iter(self.occurrences)

    @property
    def tokens(self) -> list[str]:
        """Token strings of the node in document order."""
        return [occ.token for occ in self.occurrences]

    def unique_tokens(self) -> set[str]:
        """The set of distinct tokens occurring in the node."""
        return set(self._token_positions())

    def unique_token_count(self) -> int:
        """``unique_tokens(n)`` from the paper's TF-IDF formulae."""
        return len(self._token_positions())

    def occurrence_count(self, token: str) -> int:
        """``occurs(n, t)``: number of occurrences of ``token`` in this node."""
        return len(self._token_positions().get(token, ()))

    def token_counts(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """The distinct tokens, sorted, and ``occurs(n, t)`` of each.

        Two parallel tuples (``zip`` them), the compact form of a sorted
        ``(token, occurs)`` table.  Sorted because float sums over a node's
        tokens (the TF-IDF norm) must not depend on set order, which follows
        the per-process hash seed; cached because the norm is recomputed for
        every statistics generation of a live index while the node itself
        never changes.
        """
        cached = self.__dict__.get("_token_counts_cache")
        if cached is None:
            positions = self._token_positions()
            tokens = tuple(sorted(positions))
            cached = (tokens, tuple(len(positions[token]) for token in tokens))
            object.__setattr__(self, "_token_counts_cache", cached)
        return cached

    def positions_of(self, token: str) -> list[Position]:
        """All positions of ``token`` in this node, in document order."""
        return list(self._token_positions().get(token, ()))

    def contains(self, token: str) -> bool:
        """True iff ``token`` occurs at least once in this node."""
        return token in self._token_positions()

    def term_frequency(self, token: str) -> float:
        """``tf(n, t) = occurs(n, t) / unique_tokens(n)`` (paper, Section 3.1)."""
        unique = self.unique_token_count()
        if unique == 0:
            return 0.0
        return self.occurrence_count(token) / unique

    def paragraph_count(self) -> int:
        """Number of distinct paragraphs in the node."""
        return len({occ.position.paragraph for occ in self.occurrences})

    def sentence_count(self) -> int:
        """Number of distinct sentences in the node."""
        return len({occ.position.sentence for occ in self.occurrences})

    def text_preview(self, max_tokens: int = 12) -> str:
        """A short human-readable preview of the node content."""
        words = self.tokens[:max_tokens]
        suffix = " ..." if len(self.occurrences) > max_tokens else ""
        return " ".join(words) + suffix

    # ------------------------------------------------------------- internals
    def _token_positions(self) -> dict[str, tuple[Position, ...]]:
        cached = self.__dict__.get("_token_positions_cache")
        if cached is None:
            mapping: dict[str, list[Position]] = {}
            for occ in self.occurrences:
                mapping.setdefault(occ.token, []).append(occ.position)
            cached = {token: tuple(poss) for token, poss in mapping.items()}
            object.__setattr__(self, "_token_positions_cache", cached)
        return cached

    def _offset_index(self) -> dict[int, int]:
        cached = self.__dict__.get("_offset_index_cache")
        if cached is None:
            cached = {
                occ.position.offset: idx for idx, occ in enumerate(self.occurrences)
            }
            object.__setattr__(self, "_offset_index_cache", cached)
        return cached


def node_from_paragraphs(
    node_id: int,
    paragraphs: Iterable[Sequence[str]],
    sentence_length: int | None = None,
    metadata: Mapping[str, str] | None = None,
) -> ContextNode:
    """Build a node from explicit paragraphs, each a sequence of tokens.

    Useful in tests that need precise control over paragraph boundaries
    without going through the text tokenizer.
    """
    occurrences: list[TokenOccurrence] = []
    offset = 0
    sentence = 0
    for para_idx, paragraph in enumerate(paragraphs):
        for idx_in_para, token in enumerate(paragraph):
            if sentence_length and idx_in_para and idx_in_para % sentence_length == 0:
                sentence += 1
            occurrences.append(
                TokenOccurrence(token, Position(offset, sentence, para_idx))
            )
            offset += 1
        sentence += 1
    return ContextNode(node_id, tuple(occurrences), dict(metadata or {}))
