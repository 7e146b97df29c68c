"""Scores must be bit-identical across processes (hash-seed independence).

Float addition is not associative, and ``ContextNode.unique_tokens()`` is a
set whose iteration order follows the per-process string hash seed -- so a
norm summed in set order drifts by an ulp or two between processes.  That
drift broke the replay harness's bit-identical verification of served HTTP
results against a local reference engine.  The norms now sum in sorted
token order; this test pins the contract by scoring the same corpus under
two different ``PYTHONHASHSEED`` values and requiring identical rankings
down to the last bit of every score.
"""

from __future__ import annotations

import os
import subprocess
import sys

_SCRIPT = """
import json
from repro.corpus.synthetic import generate_inex_like_collection
from repro.core.engine import FullTextEngine

collection = generate_inex_like_collection(
    num_nodes=80, tokens_per_node=40, pos_per_entry=2
)
engine = FullTextEngine.from_collection(
    collection, scoring="tfidf", access_mode="fast"
)
rankings = {}
for query in ("'w00000'", "'w00001' AND 'w00002'"):
    results = engine.search(query, top_k=10)
    rankings[query] = [(r.node_id, r.score.hex()) for r in results]
engine.close()
print(json.dumps(rankings, sort_keys=True))
"""


def _env(seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (env.get("PYTHONPATH"), *sys.path) if path
    )
    return env


def _rank_under_seed(seed: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=_env(seed), capture_output=True, text=True, check=True, timeout=120,
    ).stdout


def test_tfidf_scores_do_not_depend_on_the_hash_seed():
    assert _rank_under_seed("1") == _rank_under_seed("2")


def test_tfidf_reference_identity_holds_under_both_hash_seeds():
    """The bit-identity of scores vs the pre-table reference is not a
    property of one hash seed (token tables must not follow set order)."""
    module = os.path.join(os.path.dirname(__file__), "test_tfidf_reference.py")
    for seed in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", module],
            env=_env(seed), capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, (seed, run.stdout[-2000:])
