"""Tests for the command-line interface (in-process, no subprocesses)."""

import json

import pytest

from repro.cli import main
from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID
from repro.datasets.loaders import save_jsonl


class TestRank:
    def test_rank_prints_table(self, capsys):
        code = main(["rank", "--query", DEMO_QUERY, "--k", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.strip().splitlines()) == 5

    def test_rank_json_output(self, capsys):
        code = main(["rank", "--query", DEMO_QUERY, "--k", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["ranking"]) == 3

    def test_rank_custom_corpus(self, capsys, tmp_path, tiny_docs):
        corpus = tmp_path / "docs.jsonl"
        save_jsonl(tiny_docs, corpus)
        code = main(
            ["rank", "--corpus", str(corpus), "--query", "covid", "--k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2
        assert "d5" in out  # the doc mentioning covid twice ranks first


class TestUnifiedExplain:
    def test_sentence_removal_strategy(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "document/sentence-removal",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "removing sentence(s)" in out

    def test_query_augmentation_strategy(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "query/augmentation",
                "--n", "2",
                "--threshold", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert DEMO_QUERY in out

    def test_instance_cosine_strategy(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "instance/cosine",
                "--samples", "30",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "%" in out

    def test_instance_doc2vec_strategy(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "instance/doc2vec",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["strategy"] == "instance/doc2vec"
        assert payload["explanations"]

    def test_explain_json_envelope(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "instance/cosine",
                "--samples", "30",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["strategy"] == "instance/cosine"
        assert payload["elapsed_seconds"] >= 0.0
        assert payload["explanations"]

    @pytest.mark.parametrize(
        "strategy", ["magic/crystal", "doc2vec_nearest", "cosine_sampled"]
    )
    def test_unknown_strategy_rejected_by_parser(self, capsys, strategy):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explain",
                    "--query", DEMO_QUERY,
                    "--doc", FAKE_NEWS_DOC_ID,
                    "--strategy", strategy,
                ]
            )
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unavailable_strategy_clean_error(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "features/ltr",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "unavailable" in captured.err

    def test_unranked_document_clean_error(self, capsys):
        code = main(
            ["explain", "--query", DEMO_QUERY, "--doc", "markets-0002"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not in the top-10" in captured.err

    def test_strategies_listing(self, capsys):
        code = main(["strategies"])
        out = capsys.readouterr().out
        assert code == 0
        assert "document/sentence-removal" in out
        assert "query/augmentation" in out
        assert "(unavailable)" in out  # features/ltr under a lexical ranker

    def test_strategies_json(self, capsys):
        code = main(["strategies", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        names = {record["name"] for record in payload["strategies"]}
        assert "instance/doc2vec" in names


class TestBuilder:
    def test_builder_valid_edit(self, capsys):
        code = main(
            [
                "builder",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--replace", "covid=flu",
                "--remove", "outbreak",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "VALID" in out

    def test_builder_requires_edits(self):
        with pytest.raises(SystemExit):
            main(["builder", "--query", DEMO_QUERY, "--doc", FAKE_NEWS_DOC_ID])

    def test_builder_bad_replace_spec(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "builder",
                    "--query", DEMO_QUERY,
                    "--doc", FAKE_NEWS_DOC_ID,
                    "--replace", "justaterm",
                ]
            )


class TestIndexCommand:
    def test_index_demo_corpus_plain(self, capsys):
        code = main(["index"])
        out = capsys.readouterr().out
        assert code == 0
        assert "indexed 62 documents" in out
        assert "shards" not in out

    def test_index_sharded_with_save(self, capsys, tmp_path, tiny_docs):
        corpus = tmp_path / "docs.jsonl"
        save_jsonl(tiny_docs, corpus)
        out_path = tmp_path / "built.json"
        code = main(
            [
                "index",
                "--corpus", str(corpus),
                "--shards", "2",
                "--workers", "2",
                "--save", str(out_path),
                "--format", "v2",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["shards"] == 2
        assert payload["router"] == "hash"
        assert payload["format"] == "v2"
        assert sum(payload["shard_documents"]) == payload["documents"]
        from repro.index.sharding import ShardedIndex
        from repro.index.storage import load_index

        loaded = load_index(out_path)
        assert isinstance(loaded, ShardedIndex)
        assert len(loaded) == len(tiny_docs)

    def test_index_round_robin_router(self, capsys, tmp_path, tiny_docs):
        corpus = tmp_path / "docs.jsonl"
        save_jsonl(tiny_docs, corpus)
        code = main(
            [
                "index",
                "--corpus", str(corpus),
                "--shards", "3",
                "--router", "round-robin",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["router"] == "round-robin"
        assert max(payload["shard_documents"]) - min(payload["shard_documents"]) <= 1

    def test_index_rejects_bad_shards(self):
        with pytest.raises(SystemExit):
            main(["index", "--shards", "0"])


class TestParser:
    @pytest.mark.parametrize(
        "command",
        # the three subcommands removed in favour of `explain --strategy`
        ["teleport", *(f"explain-{v}" for v in ("document", "query", "instance"))],
    )
    def test_unknown_command_rejected(self, command):
        with pytest.raises(SystemExit):
            main([command, "--query", "q", "--doc", "d"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestSearchOptions:
    """`explain --search ...` threads the kernel options through."""

    def test_beam_search_flags(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--search", "beam",
                "--beam-width", "4",
                "--budget", "5000",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["search_strategy"] == "beam"
        assert payload["explanations"]

    def test_greedy_search_on_sentence_removal(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "document/sentence-removal",
                "--search", "greedy",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["strategy"] == "document/sentence-removal"
        assert payload["search_strategy"] == "greedy"
        assert payload["explanations"]

    def test_anytime_with_deadline(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--search", "anytime",
                "--deadline-ms", "500",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["search_strategy"] == "anytime"

    def test_unknown_search_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explain",
                    "--query", DEMO_QUERY,
                    "--doc", FAKE_NEWS_DOC_ID,
                    "--search", "simulated-annealing",
                ]
            )
        assert excinfo.value.code == 2

    def test_invalid_budget_clean_exit_2(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--budget", "0",
            ]
        )
        assert code == 2
        assert "budget" in capsys.readouterr().err
