"""The analyzer's per-surface-form memo against the unmemoised pipeline.

Every engine component shares one analyzer, and the analyzer memoises
token analysis; these tests pin that the memo never changes an answer:
not when it fills past its bound and starts over, not when threads race
on it, and not in anything persisted (the config, the v1/v2/v3 files).
"""

import random
import threading

import pytest

from repro.datasets.synthetic import synthetic_corpus
from repro.index.inverted import InvertedIndex
from repro.index.persist import save_v3
from repro.index.sharding import ShardedIndex
from repro.index.storage import save_index
from repro.text import analyzer as analyzer_module
from repro.text.analyzer import Analyzer, default_analyzer
from repro.text.tokenizer import token_texts

THREADS = 4


def unmemoised(analyzer: Analyzer, text: str) -> list[str]:
    """The oracle: the private pipeline run on every token, no memo."""
    return [
        term
        for term in map(analyzer._pipeline, token_texts(text))
        if term is not None
    ]


def word_salad(seed: int, count: int) -> list[str]:
    """``count`` texts over a large alphabet, so most tokens are new."""
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyzéüñßΣλ"
    return [
        " ".join(
            "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            for _ in range(rng.randint(1, 12))
        )
        for _ in range(count)
    ]


class TestBound:
    def test_memo_filled_past_its_bound_stays_within_it(self, monkeypatch):
        # A small bound stands in for the real one: filling 2^17 entries
        # costs seconds and exercises the same branch.
        monkeypatch.setattr(analyzer_module, "_MEMO_LIMIT", 64)
        analyzer = default_analyzer()
        texts = word_salad(seed=3, count=200)
        distinct = {raw for text in texts for raw in token_texts(text)}
        assert len(distinct) > 4 * 64
        for text in texts + texts:
            assert analyzer.analyze(text) == unmemoised(analyzer, text)
            assert [a.term for a in analyzer.analyze_tokens(text)] == (
                unmemoised(analyzer, text)
            )
            assert len(analyzer._memo) <= 64


class TestConcurrency:
    @pytest.mark.parametrize("limit", [analyzer_module._MEMO_LIMIT, 32])
    def test_threads_analysing_the_same_texts_agree(self, monkeypatch, limit):
        # With the small bound the memo is cleared while other threads
        # read and fill it.
        monkeypatch.setattr(analyzer_module, "_MEMO_LIMIT", limit)
        texts = word_salad(seed=11, count=150) + [
            document.body for document in synthetic_corpus(60, seed=5)
        ]
        analyzer = default_analyzer()
        expected = [unmemoised(analyzer, text) for text in texts]
        start = threading.Barrier(THREADS)
        results: list[list[list[str]] | None] = [None] * THREADS

        def work(slot: int) -> None:
            start.wait()
            results[slot] = [
                analyzer.analyze(text)
                for text in (texts if slot % 2 else reversed(texts))
            ]
            if slot % 2 == 0:
                results[slot].reverse()

        threads = [
            threading.Thread(target=work, args=(slot,)) for slot in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == expected for result in results)


class TestPersistence:
    @pytest.fixture
    def corpus(self):
        return synthetic_corpus(80, seed=2)

    @staticmethod
    def _save_all(directory, documents, analyzer):
        plain = InvertedIndex.from_documents(documents, analyzer)
        sharded = ShardedIndex.from_documents(documents, 3, analyzer=analyzer)
        save_index(plain, directory / "plain.json")
        save_index(sharded, directory / "sharded.json")
        records = (
            save_v3(plain, directory / "plain.v3"),
            save_v3(sharded, directory / "sharded.v3"),
        )
        files = {
            path.name: path.read_bytes()
            for path in sorted(directory.iterdir())
            if path.suffix in (".json", ".seg")
        }
        return analyzer.to_config(), records, files

    def test_files_match_with_warm_and_cold_memo(self, tmp_path, corpus):
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        cold_dir.mkdir()
        warm_dir.mkdir()
        cold = self._save_all(cold_dir, corpus, default_analyzer())

        warm_analyzer = default_analyzer()
        for text in word_salad(seed=9, count=100):
            warm_analyzer.analyze(text)
        for document in corpus:
            warm_analyzer.analyze(document.body)
        assert warm_analyzer._memo
        warm = self._save_all(warm_dir, corpus, warm_analyzer)

        assert warm[0] == cold[0]
        assert warm[1] == cold[1]
        assert set(warm[2]) == set(cold[2])
        # v1 file, v2 manifest + shard files, v3 segments.
        assert len(cold[2]) == 1 + 1 + 3 + 1 + 3
        assert warm[2] == cold[2]
