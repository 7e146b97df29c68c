"""Tests for the command-line interface."""

from __future__ import annotations

import json

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


def test_search_explain_prints_results_class_calculus_and_operator_tree(
    index_file, capsys
):
    code = main(
        ["search", str(index_file), "dist('task', 'completion', 5)", "--explain"]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "language class : PPRED" in captured
    assert "engine         : ppred" in captured
    assert "hasToken" in captured
    # Results first, then the classification lines, then the operator tree
    # with one row per query token.
    order = [
        captured.index(". node "),
        captured.index("language class"),
        captured.index("calculus"),
        captured.index("EXPLAIN ANALYZE"),
        captured.index("token='task'"),
    ]
    assert order == sorted(order)


def test_stats_command_prints_the_engine_payload(index_file, capsys):
    code = main(["stats", str(index_file)])
    stats = json.loads(capsys.readouterr().out)
    assert code == 0
    assert stats["nodes"] == 3
    assert stats["shards"] == 1
    assert stats["live"] is False
    assert stats["complexity"]["cnodes"] == 3
    assert stats["memory"]["total_bytes"] > 0
    assert stats["packed_bytes_estimate"] > 0
    assert "balance" not in stats  # one shard has nothing to balance


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


def test_stats_command_sharded_reports_rows_and_balance(index_file, capsys):
    code = main(
        ["stats", str(index_file), "--shards", "2", "--partitioner", "round-robin"]
    )
    stats = json.loads(capsys.readouterr().out)
    assert code == 0
    assert stats["shards"] == 2
    assert [row["nodes"] for row in stats["shard_stats"]] == [2, 1]
    assert stats["balance"]["min"] == 1
    assert stats["balance"]["max"] == 2


@pytest.mark.parametrize(
    "operands",
    [["stats", "{index}"], ["search", "{index}", "'usability'"], ["ingest", "-"]],
)
def test_unknown_partitioner_is_rejected_at_any_shard_count(
    operands, index_file, capsys
):
    argv = [item.format(index=index_file) for item in operands]
    code = main([*argv, "--partitioner", "bogus"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown partitioner 'bogus'" in captured.err


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


def test_the_cli_has_one_command_per_job():
    assert list(_subcommands(build_argument_parser())) == [
        "index", "search", "serve-http", "ingest", "stats",
        "doctor", "metrics", "replay", "experiment",
    ]


@pytest.mark.parametrize(
    "command",
    ["serve", "explain", "info", "index-stats", "shard-stats", "segment-stats"],
)
def test_the_retired_subcommands_are_rejected(command, index_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(index_file)])
    assert excinfo.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize("shards", ["0", "-2"])
@pytest.mark.parametrize("command", ["search", "serve-http", "ingest", "stats"])
def test_shards_must_be_at_least_one(command, shards, index_file, capsys):
    operands = {
        "search": [str(index_file), "'usability'"],
        "serve-http": [str(index_file)],
        "ingest": ["-"],
        "stats": [str(index_file)],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *operands, "--shards", shards])
    assert excinfo.value.code == 2
    assert f"must be >= 1, got {shards}" in capsys.readouterr().err


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
    code = main(["stats", str(data_dir)])
    stats = json.loads(capsys.readouterr().out)
    assert code == 0
    assert stats["nodes"] == 5
    assert stats["live"] is True
    assert sum(row["live_docs"] for row in stats["segments"]) == 5
    assert stats["wal"]["appended"] == 0  # reopened: nothing written since
    assert "packed_bytes_estimate" not in stats


def test_search_reads_a_live_data_directory(tmp_path, capsys):
    docs = tmp_path / "stream.txt"
    docs.write_text(
        "usability of efficient software\ndatabases index tokens for retrieval\n",
        encoding="utf-8",
    )
    data_dir = tmp_path / "live"
    assert main(["ingest", str(docs), "--data-dir", str(data_dir)]) == 0
    capsys.readouterr()
    assert main(["search", str(data_dir), "'retrieval'"]) == 0
    captured = capsys.readouterr().out
    assert "1 match(es)" in captured
    assert "node 1" in captured
    assert main(["search", str(data_dir), "'retrieval'", "--shards", "2"]) == 1
    assert "1-shard live index; --shards 2 disagrees" in capsys.readouterr().err


@pytest.mark.parametrize("operands", [["search", "'usability'"], ["stats"]])
def test_a_plain_directory_is_not_opened_as_a_live_index(
    operands, corpus_dir, capsys
):
    before = sorted(path.name for path in corpus_dir.iterdir())
    command, *rest = operands
    assert main([command, str(corpus_dir), *rest]) == 1
    assert "is not a live data directory" in capsys.readouterr().err
    assert sorted(path.name for path in corpus_dir.iterdir()) == before


def test_ingest_appends_to_a_sharded_directory_at_its_shard_count(tmp_path, capsys):
    first = tmp_path / "first.txt"
    first.write_text("usability of software\nsoftware measures\n", encoding="utf-8")
    second = tmp_path / "second.txt"
    second.write_text("software databases\nretrieval software\n", encoding="utf-8")
    data_dir = tmp_path / "cluster"
    assert main(["ingest", str(first), "--shards", "2", "--data-dir", str(data_dir)]) == 0
    assert main(["ingest", str(second), "--data-dir", str(data_dir)]) == 0
    assert sorted(path.name for path in data_dir.iterdir()) == ["shard-00", "shard-01"]
    capsys.readouterr()
    assert main(["stats", str(data_dir)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["shards"] == 2
    assert stats["nodes"] == 4
    assert main(["ingest", str(second), "--shards", "3", "--data-dir", str(data_dir)]) == 1
    assert "2-shard live index; --shards 3 disagrees" in capsys.readouterr().err
