"""repro: reproduction of "Expressiveness and Performance of Full-Text
Search Languages" (Botev, Amer-Yahia, Shanmugasundaram, EDBT 2006).

The package is organised as follows:

* :mod:`repro.corpus`    -- documents, tokenization, collections, synthetic data;
* :mod:`repro.index`     -- inverted lists, sequential cursors, statistics;
* :mod:`repro.segments`  -- live indexing: WAL, memtable, sealed segments,
  tombstone deletes and background compaction;
* :mod:`repro.model`     -- positions, predicates, the full-text calculus (FTC)
  and algebra (FTA), and their equivalence translations;
* :mod:`repro.languages` -- the BOOL, DIST and COMP surface languages;
* :mod:`repro.engine`    -- the evaluation algorithms (BOOL merge, PPRED
  single-scan, NPRED ordering trials, COMP by the calculus; naive COMP for figures);
* :mod:`repro.scoring`   -- the scoring framework (TF-IDF, probabilistic);
* :mod:`repro.core`      -- the high-level :class:`~repro.core.engine.FullTextEngine`;
* :mod:`repro.bench`     -- workload generation and the experiment harness
  reproducing the paper's figures.

Quickstart::

    from repro import FullTextEngine, Collection

    collection = Collection.from_texts([
        "usability testing of efficient software",
        "software measures task completion",
    ])
    engine = FullTextEngine.from_collection(collection)
    result = engine.search("'software' AND 'usability'")
    print(result.node_ids)
"""

from repro.corpus import Collection, ContextNode
from repro.exceptions import (
    CorpusError,
    EvaluationError,
    IndexError_ as InvertedIndexError,
    PredicateError,
    QuerySemanticsError,
    QuerySyntaxError,
    ReproError,
    ScoringError,
    StorageError,
    TranslationError,
    UnsupportedQueryError,
    WorkloadError,
)
from repro.index import ACCESS_MODES, FAST_MODE, PAPER_MODE, InvertedIndex, build_index
from repro.languages import LanguageClass, classify_query, parse_bool, parse_comp, parse_dist
from repro.model import Position, PredicateRegistry, default_registry

#: Single source of truth for the package version: the CLI's ``--version``
#: flag and the HTTP server's ``/health`` + ``/stats`` responses all read it
#: from here.
__version__ = "1.1.0"

__all__ = [
    "ACCESS_MODES",
    "FAST_MODE",
    "PAPER_MODE",
    "Collection",
    "ContextNode",
    "InvertedIndex",
    "build_index",
    "LanguageClass",
    "classify_query",
    "parse_bool",
    "parse_comp",
    "parse_dist",
    "Position",
    "PredicateRegistry",
    "default_registry",
    "ReproError",
    "CorpusError",
    "EvaluationError",
    "InvertedIndexError",
    "PredicateError",
    "QuerySemanticsError",
    "QuerySyntaxError",
    "ScoringError",
    "StorageError",
    "TranslationError",
    "UnsupportedQueryError",
    "WorkloadError",
    "__version__",
]

# The high-level engine depends on every subpackage; import it last so that a
# partial checkout (e.g. while bisecting) still exposes the formal model.
from repro.core import FullTextEngine, SearchResult, SearchResults  # noqa: E402
from repro.cluster import (  # noqa: E402
    LiveShardedIndex,
    QueryCache,
    ScatterGatherExecutor,
    ShardedIndex,
)
from repro.segments import LiveIndex  # noqa: E402
from repro.exceptions import ClusterError  # noqa: E402

__all__ += [
    "FullTextEngine",
    "SearchResult",
    "SearchResults",
    "ShardedIndex",
    "ScatterGatherExecutor",
    "QueryCache",
    "ClusterError",
    "LiveIndex",
    "LiveShardedIndex",
]
