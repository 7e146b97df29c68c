"""Parsed query objects: surface text + AST + classification + calculus form."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.exceptions import QuerySyntaxError
from repro.languages import ast
from repro.languages.classify import LanguageClass, classify_query
from repro.languages.parser import LanguageLevel, QueryParser
from repro.model.calculus import CalculusQuery
from repro.model.predicates import PredicateRegistry, default_registry

#: Accepted language names for :func:`parse_query`.
LANGUAGE_LEVELS = {
    "auto": LanguageLevel.COMP,
    "bool": LanguageLevel.BOOL,
    "dist": LanguageLevel.DIST,
    "comp": LanguageLevel.COMP,
}


@dataclass
class Query:
    """A parsed query ready for execution.

    The language class is computed on first read, from the node and the
    registry the query was parsed with: a search takes its class from the
    evaluation outcome, so it never pays for classifying here as well.
    """

    text: str
    language: str
    node: ast.QueryNode
    registry: PredicateRegistry = field(repr=False, compare=False)

    @cached_property
    def language_class(self) -> LanguageClass:
        """The cheapest class of the hierarchy the query belongs to."""
        return classify_query(self.node, self.registry)

    def to_calculus(self) -> CalculusQuery:
        """The calculus form of the query (Section 4 semantics)."""
        return self.node.to_calculus_query()

    def measures(self) -> dict[str, int]:
        """The paper's query parameters: ``toks_Q``, ``preds_Q``, ``ops_Q``."""
        return ast.query_measures(self.node)

    def tokens(self) -> set[str]:
        """Every token literal mentioned in the query."""
        return ast.query_tokens(self.node)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Query({self.text!r}, language={self.language}, "
            f"class={self.language_class.value})"
        )


def parse_query(
    text: str,
    language: str = "auto",
    registry: PredicateRegistry | None = None,
) -> Query:
    """Parse ``text`` in the requested language.

    ``language`` is one of ``"bool"``, ``"dist"``, ``"comp"`` or ``"auto"``
    (the default): ``auto`` parses with the full COMP grammar, so any query of
    any of the three languages is accepted, and ``language_class`` then
    reports the cheapest class the query belongs to.
    """
    registry = registry or default_registry()
    try:
        level = LANGUAGE_LEVELS[language.lower()]
    except KeyError as exc:
        raise QuerySyntaxError(
            f"unknown language {language!r}; expected one of "
            f"{sorted(LANGUAGE_LEVELS)}"
        ) from exc
    parser = QueryParser(level, registry)
    node = parser.parse_closed(text)
    return Query(text, language.lower(), node, registry)
