"""The sharded corpus backend: routers, merged views, bulk ingestion,
persistence, and surface parity with a single inverted index."""

import json

import pytest

from repro.errors import ConfigurationError, DocumentNotFoundError
from repro.datasets.synthetic import synthetic_corpus
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.sharding import (
    AnalysisMemo,
    HashRouter,
    MergedStats,
    RoundRobinRouter,
    ShardedIndex,
    build_router,
)
from repro.index.similarity import (
    Bm25Similarity,
    DirichletSimilarity,
    TfIdfSimilarity,
)
from repro.index.storage import load_index, save_index
from repro.text.analyzer import default_analyzer
from repro.text.tokenizer import token_texts

QUERY = "virus vaccine hospital market storm"


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(120, seed=7)


@pytest.fixture(scope="module")
def single(corpus):
    return InvertedIndex.from_documents(corpus)


@pytest.fixture(scope="module")
def sharded(corpus):
    return ShardedIndex.from_documents(corpus, shard_count=4, workers=2)


class TestRouters:
    def test_hash_router_is_deterministic_across_instances(self):
        a, b = HashRouter(4), HashRouter(4)
        for doc_id in ("health-0001", "finance-0002", "x"):
            assert a.route(doc_id) == b.route(doc_id)
            assert 0 <= a.route(doc_id) < 4

    def test_round_robin_cycles(self):
        router = RoundRobinRouter(3)
        assert [router.route(f"d{i}") for i in range(7)] == [
            0, 1, 2, 0, 1, 2, 0,
        ]

    def test_build_router_names(self):
        assert isinstance(build_router("hash", 2), HashRouter)
        assert isinstance(build_router("round-robin", 2), RoundRobinRouter)
        with pytest.raises(ConfigurationError):
            build_router("modulo", 2)

    def test_router_shard_count_must_match(self):
        with pytest.raises(ConfigurationError):
            ShardedIndex(shard_count=4, router=HashRouter(2))

    def test_round_robin_balances_exactly(self, corpus):
        index = ShardedIndex.from_documents(
            corpus, shard_count=4, router=RoundRobinRouter(4)
        )
        assert index.shard_sizes() == [30, 30, 30, 30]


class TestMergedStats:
    def test_add_remove_roundtrip(self):
        stats = MergedStats()
        stats.add_document(["a", "b", "a", "c"])
        stats.add_document(["b", "d"])
        assert stats.document_frequency("a") == 1
        assert stats.collection_frequency("a") == 2
        assert stats.document_frequency("b") == 2
        assert stats.total_terms == 6
        assert stats.terms() == ["a", "b", "c", "d"]
        stats.remove_document({"a": 2, "b": 1, "c": 1}, 4)
        assert stats.document_frequency("a") == 0
        assert stats.terms() == ["b", "d"]
        assert stats.stats().document_count == 1

    def test_reintroduced_term_appends_like_postings_dict(self):
        stats = MergedStats()
        stats.add_document(["a", "b"])
        stats.remove_document({"a": 1, "b": 1}, 2)
        stats.add_document(["b", "a"])
        assert stats.terms() == ["b", "a"]


class TestSurfaceParity:
    """Every read on the sharded index matches the single index exactly."""

    def test_stats_and_lengths(self, single, sharded):
        assert single.stats() == sharded.stats()
        assert len(single) == len(sharded)
        assert (
            single.average_document_length == sharded.average_document_length
        )

    def test_global_insertion_order(self, single, sharded):
        assert single.doc_ids == sharded.doc_ids
        assert [d.doc_id for d in single] == [d.doc_id for d in sharded]

    def test_terms_order(self, single, sharded):
        assert list(single.terms()) == list(sharded.terms())

    def test_per_term_statistics(self, single, sharded):
        for term in list(single.terms()):
            assert single.document_frequency(term) == sharded.document_frequency(term)
            assert single.collection_frequency(term) == sharded.collection_frequency(term)

    def test_per_document_accessors(self, single, sharded, corpus):
        for document in corpus[:20]:
            doc_id = document.doc_id
            assert doc_id in sharded
            assert sharded.document(doc_id).body == single.document(doc_id).body
            assert sharded.document_length(doc_id) == single.document_length(doc_id)
            assert sharded.term_vector(doc_id) == single.term_vector(doc_id)
            assert sharded.term_frequencies(doc_id) == single.term_frequencies(doc_id)

    def test_merged_postings(self, single, sharded):
        terms = [t for t in single.terms() if single.document_frequency(t) > 3]
        assert len(terms) >= 3
        for term in terms[:5]:
            merged = sharded.postings(term)
            reference = single.postings(term)
            assert merged is not None and reference is not None
            assert merged.document_frequency == reference.document_frequency
            assert merged.collection_frequency == reference.collection_frequency
            assert len(merged) == len(reference)
            by_doc = {posting.doc_id: posting for posting in reference}
            for posting in merged:
                assert posting == by_doc[posting.doc_id]
                assert posting.doc_id in merged
                assert merged.get(posting.doc_id) == posting
        assert sharded.postings("zzz-unindexed") is None
        assert sharded.postings(terms[0]).get("no-such-doc") is None

    def test_missing_document_raises(self, sharded):
        with pytest.raises(DocumentNotFoundError):
            sharded.document("ghost")
        with pytest.raises(DocumentNotFoundError):
            sharded.document_length("ghost")
        with pytest.raises(DocumentNotFoundError):
            sharded.remove("ghost")
        with pytest.raises(DocumentNotFoundError):
            sharded.shard_of("ghost")


class TestRetrievalEquivalence:
    @pytest.mark.parametrize(
        "similarity",
        [Bm25Similarity(), TfIdfSimilarity(), DirichletSimilarity()],
        ids=["bm25", "tfidf", "lm"],
    )
    def test_scores_and_topk_byte_identical(self, single, sharded, similarity):
        a = IndexSearcher(single, similarity)
        b = IndexSearcher(sharded, similarity)
        assert a.score_all(QUERY) == b.score_all(QUERY)
        assert a.search(QUERY, 10) == b.search(QUERY, 10)

    def test_phrase_and_boolean(self, single, sharded):
        a, b = IndexSearcher(single), IndexSearcher(sharded)
        assert a.search_phrase("officials said") == b.search_phrase("officials said")
        assert a.search_boolean(QUERY, mode="or") == b.search_boolean(QUERY, mode="or")
        assert a.search_boolean("virus market", mode="and") == b.search_boolean(
            "virus market", mode="and"
        )


class TestMutation:
    def _pair(self, corpus):
        return (
            InvertedIndex.from_documents(corpus),
            ShardedIndex.from_documents(corpus, shard_count=3),
        )

    def test_add_duplicate_raises(self, corpus):
        index = ShardedIndex.from_documents(corpus[:5], shard_count=2)
        with pytest.raises(ValueError, match="duplicate document id"):
            index.add(corpus[0])

    def test_remove_and_readd_keeps_parity(self, corpus):
        single, sharded = self._pair(corpus[:40])
        victim = corpus[7]
        assert sharded.remove(victim.doc_id).doc_id == victim.doc_id
        single.remove(victim.doc_id)
        single.add(victim)
        sharded.add(victim)
        assert single.doc_ids == sharded.doc_ids
        assert list(single.terms()) == list(sharded.terms())
        assert single.stats() == sharded.stats()

    def test_replace_keeps_shard_and_parity(self, corpus):
        single, sharded = self._pair(corpus[:40])
        victim = corpus[3]
        shard_before = sharded.shard_of(victim.doc_id)
        edited = victim.with_body("An entirely new virus outbreak story.")
        single.replace(edited)
        previous = sharded.replace(edited)
        assert previous.body == victim.body
        assert sharded.shard_of(victim.doc_id) == shard_before
        assert sharded.document(victim.doc_id).body == edited.body
        assert single.stats() == sharded.stats()
        assert list(single.terms()) == list(sharded.terms())

    def test_version_advances_on_every_mutation(self, corpus):
        index = ShardedIndex.from_documents(corpus[:10], shard_count=2)
        version = index.version
        index.add(Document("fresh-doc", "a virus story"))
        assert index.version > version
        version = index.version
        index.remove("fresh-doc")
        assert index.version > version


class TestBulkIngestion:
    def test_parallel_matches_serial_and_incremental(self, corpus):
        one_by_one = ShardedIndex(shard_count=4)
        for document in corpus:
            one_by_one.add(document)
        serial = ShardedIndex.from_documents(corpus, shard_count=4, workers=None)
        parallel = ShardedIndex.from_documents(corpus, shard_count=4, workers=4)
        for built in (serial, parallel):
            assert built.doc_ids == one_by_one.doc_ids
            assert list(built.terms()) == list(one_by_one.terms())
            assert built.stats() == one_by_one.stats()
            assert built.shard_sizes() == one_by_one.shard_sizes()

    def test_duplicate_in_batch_fails_before_mutation(self, corpus):
        index = ShardedIndex(shard_count=2)
        batch = [corpus[0], corpus[1], corpus[0]]
        with pytest.raises(ValueError, match="duplicate document id"):
            index.add_documents(batch)
        assert len(index) == 0

    def test_duplicate_against_corpus_fails_before_mutation(self, corpus):
        index = ShardedIndex.from_documents(corpus[:5], shard_count=2)
        with pytest.raises(ValueError, match="duplicate document id"):
            index.add_documents([corpus[10], corpus[2]])
        assert len(index) == 5

    def test_failing_batch_rolls_back(self, corpus, monkeypatch):
        index = ShardedIndex.from_documents(corpus[:10], shard_count=2)
        boom = RuntimeError("analysis exploded")

        original = AnalysisMemo.analyze
        calls = {"n": 0}

        def failing_analyze(self, text):
            calls["n"] += 1
            if calls["n"] > 3:
                raise boom
            return original(self, text)

        monkeypatch.setattr(AnalysisMemo, "analyze", failing_analyze)
        with pytest.raises(RuntimeError, match="analysis exploded"):
            index.add_documents(corpus[10:30], workers=2)
        monkeypatch.setattr(AnalysisMemo, "analyze", original)
        assert len(index) == 10
        assert index.doc_ids == [d.doc_id for d in corpus[:10]]
        # The index is still fully usable after the rollback.
        index.add_documents(corpus[10:30])
        assert len(index) == 30

    def test_empty_batch_is_a_noop(self):
        index = ShardedIndex(shard_count=2)
        version = index.version
        assert index.add_documents([]) == 0
        assert index.version == version

    def test_single_index_bulk_matches_loop(self, corpus):
        loop = InvertedIndex.from_documents(corpus)
        bulk = InvertedIndex()
        assert bulk.add_documents(corpus) == len(corpus)
        assert loop.doc_ids == bulk.doc_ids
        assert list(loop.terms()) == list(bulk.terms())
        assert loop.stats() == bulk.stats()
        with pytest.raises(ValueError, match="duplicate document id"):
            bulk.add_documents([corpus[0]])


class TestAnalysisMemo:
    def test_memoized_analysis_is_byte_identical(self, corpus):
        analyzer = default_analyzer()
        memo = AnalysisMemo(analyzer)
        for document in corpus[:50]:
            unmemoised = [
                term
                for term in map(analyzer._pipeline, token_texts(document.body))
                if term is not None
            ]
            assert memo.analyze(document.body) == unmemoised

    def test_filtered_tokens_are_cached_as_none(self):
        analyzer = default_analyzer()
        assert AnalysisMemo(analyzer).analyze("the the the") == []
        assert analyzer._memo == {"the": None}


class TestPersistence:
    def test_v2_roundtrip_hash_router(self, tmp_path, corpus, sharded):
        path = tmp_path / "corpus.json"
        save_index(sharded, path)
        manifest = json.loads(path.read_text())
        assert manifest["format_version"] == 2
        assert manifest["shard_count"] == 4
        assert len(list(tmp_path.glob("corpus.shard-*.json"))) == 4
        loaded = load_index(path)
        assert isinstance(loaded, ShardedIndex)
        assert loaded.doc_ids == sharded.doc_ids
        assert loaded.shard_sizes() == sharded.shard_sizes()
        assert loaded.stats() == sharded.stats()
        assert list(loaded.terms()) == list(sharded.terms())
        assert loaded.analyzer.to_config() == sharded.analyzer.to_config()

    def test_v2_roundtrip_preserves_round_robin_placements(self, tmp_path, corpus):
        index = ShardedIndex.from_documents(
            corpus[:17], shard_count=3, router=RoundRobinRouter(3)
        )
        path = tmp_path / "rr.json"
        save_index(index, path)
        loaded = load_index(path)
        for doc_id in index.doc_ids:
            assert loaded.shard_of(doc_id) == index.shard_of(doc_id)
        # The restored router resumes the cycle where the saved one left off.
        loaded.add(Document("rr-next", "a fresh virus story"))
        index.add(Document("rr-next", "a fresh virus story"))
        assert loaded.shard_of("rr-next") == index.shard_of("rr-next")

    def test_round_robin_cursor_survives_removals(self, tmp_path, corpus):
        # The cycle position cannot be derived from surviving documents:
        # after a removal the persisted cursor must drive the next add.
        index = ShardedIndex.from_documents(
            corpus[:3], shard_count=2, router=RoundRobinRouter(2)
        )
        index.remove(corpus[1].doc_id)
        path = tmp_path / "rr-removed.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.router.cursor == index.router.cursor
        loaded.add(Document("after-reload", "a fresh virus story"))
        index.add(Document("after-reload", "a fresh virus story"))
        assert loaded.shard_of("after-reload") == index.shard_of("after-reload")

    def test_round_robin_cursor_validation(self):
        router = RoundRobinRouter(3)
        with pytest.raises(ConfigurationError):
            router.cursor = 3

    def test_resaving_narrower_removes_stale_shard_files(self, tmp_path, corpus):
        path = tmp_path / "corpus.json"
        save_index(ShardedIndex.from_documents(corpus, shard_count=4), path)
        save_index(ShardedIndex.from_documents(corpus, shard_count=2), path)
        assert len(list(tmp_path.glob("corpus.shard-*.json"))) == 2
        assert load_index(path).shard_count == 2

    def test_v1_single_index_still_roundtrips(self, tmp_path, single):
        path = tmp_path / "single.json"
        save_index(single, path)
        assert json.loads(path.read_text())["format_version"] == 1
        loaded = load_index(path)
        assert isinstance(loaded, InvertedIndex)
        assert loaded.doc_ids == single.doc_ids

    def test_save_concurrent_with_mutation_is_consistent(self, tmp_path, corpus):
        """A save racing corpus mutation must capture one coherent state.

        The manifest and shard files come from a single atomic snapshot;
        a torn save would make load_index silently drop (or fail on) the
        documents that mutated mid-save.
        """
        import threading

        index = ShardedIndex.from_documents(corpus[:20], shard_count=3)
        stop = threading.Event()

        def mutate():
            position = 0
            while not stop.is_set():
                doc_id = f"churn-{position}"
                index.add(Document(doc_id, "a rolling virus story"))
                if position >= 3:
                    index.remove(f"churn-{position - 3}")
                position += 1

        writer = threading.Thread(target=mutate, daemon=True)
        writer.start()
        try:
            for round_number in range(10):
                path = tmp_path / f"race-{round_number}.json"
                save_index(index, path)
                loaded = load_index(path)  # must never raise / drop docs
                assert len(loaded) >= 20
                assert list(loaded.terms())  # coherent merged stats
        finally:
            stop.set()
            writer.join(timeout=10)

    def test_export_state_snapshot_is_coherent(self, corpus):
        index = ShardedIndex.from_documents(corpus[:15], shard_count=3)
        placements, shard_documents, version, cursor = index.export_state()
        assert [doc_id for doc_id, _ in placements] == index.doc_ids
        assert version == index.version
        assert cursor is None  # hash router carries no cycle state
        by_shard = [len(docs) for docs in shard_documents]
        assert by_shard == index.shard_sizes()
        for doc_id, shard in placements:
            assert doc_id in {d.doc_id for d in shard_documents[shard]}

    def test_interrupted_resave_leaves_previous_save_loadable(
        self, tmp_path, corpus, monkeypatch
    ):
        """Crash safety: the manifest rename is the commit point.

        A re-save that dies after writing its shard files but before the
        manifest must leave the *previous* save fully loadable — its
        generation-named shard files are never overwritten.
        """
        import repro.index.storage as storage

        path = tmp_path / "corpus.json"
        index = ShardedIndex.from_documents(corpus[:10], shard_count=2)
        save_index(index, path)
        first_doc_ids = index.doc_ids

        index.add_documents(corpus[10:20])
        original = storage._write_json

        def dying_write(target, payload):
            if target == path:  # the manifest write = the commit point
                raise OSError("disk full")
            original(target, payload)

        monkeypatch.setattr(storage, "_write_json", dying_write)
        with pytest.raises(OSError, match="disk full"):
            save_index(index, path)
        monkeypatch.setattr(storage, "_write_json", original)

        loaded = load_index(path)  # the old manifest + its own shard files
        assert loaded.doc_ids == first_doc_ids
        # And a subsequent successful save commits the new state + GCs.
        save_index(index, path)
        assert load_index(path).doc_ids == index.doc_ids
        referenced = set(
            json.loads(path.read_text())["shard_files"]
        )
        on_disk = {p.name for p in tmp_path.glob("corpus.shard-*.json")}
        assert on_disk == referenced

    def test_corrupt_manifest_placement_raises(self, tmp_path, corpus):
        path = tmp_path / "corpus.json"
        save_index(ShardedIndex.from_documents(corpus[:5], shard_count=2), path)
        manifest = json.loads(path.read_text())
        manifest["placements"].append(["ghost-doc", 1])
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="ghost-doc"):
            load_index(path)
