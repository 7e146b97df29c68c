"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_argument_parser, main


@pytest.fixture
def corpus_dir(tmp_path):
    documents = {
        "usability.txt": "usability of an efficient software supports task completion",
        "testing.txt": "software testing and usability testing",
        "databases.txt": "databases index tokens for retrieval",
    }
    directory = tmp_path / "docs"
    directory.mkdir()
    for name, text in documents.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.fixture
def index_file(corpus_dir, tmp_path):
    output = tmp_path / "collection.json"
    assert main(["index", str(corpus_dir), "-o", str(output)]) == 0
    return output


def test_index_command_reports_summary(corpus_dir, tmp_path, capsys):
    output = tmp_path / "out.json.gz"
    code = main(["index", str(corpus_dir), "-o", str(output)])
    captured = capsys.readouterr().out
    assert code == 0
    assert output.exists()
    assert "indexed 3 documents" in captured


def test_index_command_accepts_individual_files(corpus_dir, tmp_path):
    files = sorted(str(path) for path in corpus_dir.glob("*.txt"))
    output = tmp_path / "files.json"
    assert main(["index", *files, "-o", str(output)]) == 0


def test_search_command_prints_ranked_results(index_file, capsys):
    code = main(
        ["search", str(index_file), "'usability' AND 'software'", "--top-k", "5"]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "match(es)" in captured
    assert "node" in captured


def test_search_command_with_comp_query_and_forced_engine(index_file, capsys):
    code = main(
        [
            "search",
            str(index_file),
            "SOME p1 SOME p2 (p1 HAS 'task' AND p2 HAS 'completion' "
            "AND distance(p1, p2, 0))",
            "--engine",
            "comp",
            "--scoring",
            "none",
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "via comp" in captured


def test_search_command_reports_errors_gracefully(index_file, capsys):
    code = main(["search", str(index_file), "'unterminated"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_explain_command(capsys):
    code = main(["explain", "dist('task', 'completion', 5)"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PPRED" in captured
    assert "ppred" in captured
    assert "hasToken" in captured


def test_info_command(index_file, capsys):
    code = main(["info", str(index_file)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "nodes" in captured
    assert "cnodes" in captured
    assert "COMP" in captured


def test_index_stats_command_reports_columnar_footprint(index_file, capsys):
    code = main(["index-stats", str(index_file)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "postings" in captured
    assert "columnar memory footprint" in captured
    assert "total_bytes" in captured
    assert "bytes/position" in captured


def test_search_command_fast_access_mode_matches_paper(index_file, capsys):
    query = "'software' AND 'usability'"
    assert main(["search", str(index_file), query, "--access-mode", "paper"]) == 0
    paper_out = capsys.readouterr().out
    assert main(["search", str(index_file), query, "--access-mode", "fast"]) == 0
    fast_out = capsys.readouterr().out

    def result_lines(output: str) -> list[str]:
        # Ranked result rows only; the summary line carries a timing that
        # differs between runs.
        return [line for line in output.splitlines() if ". node " in line]

    assert result_lines(fast_out) == result_lines(paper_out)
    assert "match(es)" in fast_out


def test_search_command_sharded_matches_single(index_file, capsys):
    query = "'usability' AND 'software'"
    assert main(["search", str(index_file), query]) == 0
    single_out = capsys.readouterr().out
    assert main(["search", str(index_file), query, "--shards", "3"]) == 0
    sharded_out = capsys.readouterr().out

    def result_lines(output: str) -> list[str]:
        return [line for line in output.splitlines() if ". node " in line]

    assert result_lines(sharded_out) == result_lines(single_out)
    assert "scatter-gather over 3 shards" in sharded_out


def test_shard_stats_command(index_file, capsys):
    code = main(
        ["shard-stats", str(index_file), "--shards", "2", "--partitioner", "round-robin"]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "partitioner    : round-robin" in captured
    assert "shards         : 2" in captured
    assert "balance" in captured


def test_shard_stats_rejects_unknown_partitioner(index_file, capsys):
    code = main(["shard-stats", str(index_file), "--partitioner", "bogus"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_serve_command_batch_session(index_file, capsys, monkeypatch):
    import io

    queries = "\n".join(
        [
            "'usability' AND 'software'",
            "'usability' AND 'software'",  # repeat: served from the cache
            "# a comment line",
            "'unterminated",  # parse error must not kill the server
            ":stats",
            ":quit",
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(queries + "\n"))
    code = main(["serve", str(index_file), "--shards", "2", "--top-k", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[cached" in captured
    assert "error:" in captured
    assert "served 2 queries over 2 shard(s)" in captured
    assert "hit_rate=50.0%" in captured


def test_serve_command_single_shard_still_caches(index_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("'usability'\n'usability'\n"))
    code = main(["serve", str(index_file), "--scoring", "none"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "served 2 queries over 1 shard(s)" in captured
    assert "[cached" in captured  # the default cache works without sharding


def test_serve_command_cache_disabled(index_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("'usability'\n"))
    code = main(["serve", str(index_file), "--cache-size", "0"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "size=0/0" in captured


def test_experiment_command_single_figure_smoke(capsys):
    code = main(["experiment", "--figure", "6", "--scale", "smoke"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "Figure 6" in captured
    assert "BOOL" in captured


def test_experiment_command_figure3(capsys):
    from repro.bench.figures import FigureScale
    from repro.index.inverted_index import InvertedIndex

    code = main(["experiment", "--figure", "3", "--scale", "smoke"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "complexity hierarchy" in captured
    assert "PPRED" in captured
    # The bounds describe the collection Figures 5-8 measure at this scale.
    measured = InvertedIndex(FigureScale.smoke().collection())
    params = measured.statistics.complexity_parameters()
    assert f"data parameters : {params.as_dict()}" in captured


def test_experiment_all_prints_figures_and_ablations(capsys):
    code = main(["experiment", "--figure", "all", "--scale", "smoke"])
    captured = capsys.readouterr().out
    assert code == 0
    for title in (
        "Figure 3:",
        "Figure 5:",
        "Figure 6:",
        "Figure 7:",
        "Figure 8:",
        "Ablation: NPRED orders",
        "Ablation: scoring overhead",
    ):
        assert title in captured
    positions = [captured.index(f"Figure {n}:") for n in (3, 5, 6, 7, 8)]
    assert positions == sorted(positions)


def test_experiment_figure3_at_laptop_scale_describes_the_measured_collection(
    capsys,
):
    code = main(["experiment", "--figure", "3", "--scale", "laptop"])
    captured = capsys.readouterr().out
    assert code == 0
    # The laptop preset's own collection, not a default-shaped stand-in.
    assert "'pos_per_cnode': 120" in captured
    assert "'pos_per_entry': 32" in captured


def _subcommands(parser) -> dict:
    import argparse

    (action,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


def test_experiment_figure_choices_are_unchanged():
    experiment = _subcommands(build_argument_parser())["experiment"]
    (figure,) = [a for a in experiment._actions if "--figure" in a.option_strings]
    assert list(figure.choices) == ["all", "3", "5", "6", "7", "8"]


def test_the_retired_observatory_subcommand_is_rejected(capsys):
    assert "bench" not in _subcommands(build_argument_parser())
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "run", "--quick"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def _loaded_by_cli_import(modules: tuple) -> str:
    """Which of ``modules`` a fresh interpreter holds after ``import repro.cli``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    probe = (
        "import sys, repro.cli; "
        f"print(sorted(m for m in {modules!r} if m in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=repo_src),
    )
    return completed.stdout.strip()


def test_importing_the_cli_does_not_load_the_profiler():
    assert _loaded_by_cli_import(("cProfile", "pstats")) == "[]"


def test_importing_the_cli_does_not_load_process_machinery():
    modules = (
        "multiprocessing",
        "concurrent.futures.process",
        "repro.cluster.process_scatter",
    )
    assert _loaded_by_cli_import(modules) == "[]"


def test_the_retired_workers_option_is_rejected(index_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["search", str(index_file), "'usability'", "--workers", "process"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --workers process" in capsys.readouterr().err


def test_parser_requires_a_command():
    parser = build_argument_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


# ---------------------------------------------------------------- live index
def test_serve_live_session_mutates_while_serving(index_file, capsys, monkeypatch):
    import io

    session = "\n".join(
        [
            "'usability'",
            ":add a brand new usability document",
            "'usability'",
            ":update 0 nothing relevant anymore",
            ":delete 1",
            "'usability'",
            ":segments",
            ":flush",
            ":compact",
            ":quit",
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(session + "\n"))
    code = main(["serve", str(index_file), "--live", "--scoring", "none"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "added node 3" in captured
    assert "updated node 0" in captured
    assert "deleted node 1" in captured
    assert "flushed;" in captured
    assert "compacted" in captured
    assert "memtable" in captured or "segment" in captured
    assert "served 3 queries" in captured


def test_serve_without_live_rejects_mutation_commands(index_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(":add some text\n:quit\n"))
    code = main(["serve", str(index_file), "--scoring", "none"])
    captured = capsys.readouterr().out
    assert code == 0
    # Without --live the line is treated as a (failing) query, not a command.
    assert "added node" not in captured
    assert "error:" in captured


def test_serve_prints_final_summary_exactly_once_on_eof(index_file, capsys, monkeypatch):
    import io

    # Stream ends without ':quit' -- the EOF path must still summarise once.
    monkeypatch.setattr("sys.stdin", io.StringIO("'usability'\n"))
    code = main(["serve", str(index_file), "--scoring", "none"])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.count("served 1 queries over") == 1
    assert captured.count("cache: size=") == 1


def test_serve_prints_final_summary_exactly_once_on_interrupt(
    index_file, capsys, monkeypatch
):
    class InterruptingStream:
        def __iter__(self):
            yield "'usability'\n"
            raise KeyboardInterrupt

        def isatty(self):
            return False

    monkeypatch.setattr("sys.stdin", InterruptingStream())
    code = main(["serve", str(index_file), "--scoring", "none"])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.count("served 1 queries over") == 1


def test_ingest_command_streams_documents(index_file, tmp_path, capsys):
    docs = tmp_path / "stream.txt"
    docs.write_text(
        "usability in streamed form\nsoftware streamed twice\n"
        "another streamed document\n",
        encoding="utf-8",
    )
    queries = tmp_path / "queries.txt"
    queries.write_text("'usability'\n# comment\n", encoding="utf-8")
    code = main(
        [
            "ingest", str(docs),
            "--base", str(index_file),
            "--queries", str(queries),
            "--query-every", "1",
            "--flush-threshold", "2",
            "--compact",
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "ingested 3 documents" in captured
    assert "served 3 queries during ingest" in captured
    assert "compacted" in captured


def test_ingest_from_stdin_without_base(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("only document\n\n"))
    code = main(["ingest", "-"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "ingested 1 documents" in captured


def test_ingest_persists_into_data_dir(index_file, tmp_path, capsys):
    docs = tmp_path / "stream.txt"
    docs.write_text("streamed one\nstreamed two\n", encoding="utf-8")
    data_dir = tmp_path / "livedir"
    code = main(
        ["ingest", str(docs), "--base", str(index_file), "--data-dir", str(data_dir)]
    )
    assert code == 0
    assert (data_dir / "MANIFEST.json").exists()
    capsys.readouterr()
    code = main(["segment-stats", str(data_dir)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "live documents : 5" in captured


def test_segment_stats_on_collection_file(index_file, capsys):
    code = main(["segment-stats", str(index_file), "--flush-threshold", "2"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "live documents : 3" in captured
    assert "segment" in captured
    assert "memory" in captured
