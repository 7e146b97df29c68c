"""Tests for ContextNode: the Positions/Token model functions and statistics."""

from __future__ import annotations

import pytest

from repro.corpus.document import ContextNode, node_from_paragraphs
from repro.exceptions import CorpusError
from repro.model.positions import Position


@pytest.fixture
def node() -> ContextNode:
    return ContextNode.from_text(
        7, "Usability of a software measures usability of software"
    )


def test_positions_function_returns_all_offsets_in_order(node):
    assert [pos.offset for pos in node.positions()] == list(range(8))


def test_token_at_maps_positions_to_tokens(node):
    assert node.token_at(node.positions()[0]) == "usability"
    assert node.token_at(3) == "software"


def test_token_at_unknown_position_raises(node):
    with pytest.raises(CorpusError):
        node.token_at(99)


def test_positions_of_token(node):
    offsets = [pos.offset for pos in node.positions_of("usability")]
    assert offsets == [0, 5]
    assert node.positions_of("missing") == []


def test_contains_and_occurrence_count(node):
    assert node.contains("software")
    assert not node.contains("databases")
    assert node.occurrence_count("software") == 2
    assert node.occurrence_count("missing") == 0


def test_unique_token_count(node):
    # usability, of, a, software, measures
    assert node.unique_token_count() == 5


def test_unique_tokens_is_a_fresh_set(node):
    tokens = node.unique_tokens()
    assert tokens == {"usability", "of", "a", "software", "measures"}
    tokens.clear()  # callers may mutate what they get
    assert node.unique_token_count() == 5 and len(node.unique_tokens()) == 5


def test_token_counts_is_sorted_and_matches_occurrence_counts(node):
    tokens, counts = node.token_counts()
    assert tokens == ("a", "measures", "of", "software", "usability")
    assert counts == (1, 1, 2, 2, 2)
    assert counts == tuple(node.occurrence_count(token) for token in tokens)
    assert node.token_counts() is node.token_counts()  # cached per node
    assert ContextNode(3, ()).token_counts() == ((), ())


def test_term_frequency_uses_unique_token_normalisation(node):
    assert node.term_frequency("software") == pytest.approx(2 / 5)
    assert node.term_frequency("missing") == 0.0


def test_term_frequency_of_empty_node_is_zero():
    empty = ContextNode(3, ())
    assert empty.term_frequency("anything") == 0.0
    assert len(empty) == 0


def test_from_tokens_with_regular_structure():
    node = ContextNode.from_tokens(
        1, ["a", "b", "c", "d", "e", "f"], sentence_length=2, paragraph_length=3
    )
    assert [pos.sentence for pos in node.positions()] == [0, 0, 1, 1, 2, 2]
    assert [pos.paragraph for pos in node.positions()] == [0, 0, 0, 1, 1, 1]
    assert node.sentence_count() == 3
    assert node.paragraph_count() == 2


def test_node_from_paragraphs_sets_paragraph_boundaries():
    node = node_from_paragraphs(0, [["a", "b"], ["c"], ["d", "e", "f"]])
    assert [pos.paragraph for pos in node.positions()] == [0, 0, 1, 2, 2, 2]
    assert [pos.offset for pos in node.positions()] == [0, 1, 2, 3, 4, 5]


def test_node_from_paragraphs_sentence_length():
    node = node_from_paragraphs(0, [["a", "b", "c", "d"]], sentence_length=2)
    assert [pos.sentence for pos in node.positions()] == [0, 0, 1, 1]


def test_negative_node_id_rejected():
    with pytest.raises(CorpusError):
        ContextNode.from_tokens(-1, ["a"])


def test_non_increasing_offsets_rejected():
    from repro.corpus.tokenizer import TokenOccurrence

    with pytest.raises(CorpusError):
        ContextNode(
            0,
            (
                TokenOccurrence("a", Position(1)),
                TokenOccurrence("b", Position(1)),
            ),
        )


def test_metadata_is_preserved():
    node = ContextNode.from_text(0, "hello world", metadata={"title": "greeting"})
    assert node.metadata["title"] == "greeting"


def test_text_preview_truncates():
    node = ContextNode.from_tokens(0, [f"w{i}" for i in range(30)])
    preview = node.text_preview(max_tokens=5)
    assert preview.startswith("w0 w1 w2 w3 w4")
    assert preview.endswith("...")


def test_tokens_property_round_trips(node):
    assert node.tokens == [occ.token for occ in node]
