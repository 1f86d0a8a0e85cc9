"""Read-only replicas: N processes over one on-disk v3 index.

Two layers of coverage:

* **In-process** — `ReplicaIndex` refresh semantics, the generation
  watcher, delegation, and the read-only contract.
* **Multi-process** — a writer committing new generations while two
  independent reader processes attach the same index files and serve
  queries; readers must agree with each other and with the committed
  corpus at every step.
"""

import multiprocessing
import time

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.errors import ReadOnlyIndexError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.persist import GenerationWatcher, ReplicaIndex, save_v3
from repro.index.sharding import ShardedIndex
from tests.core.test_search_equivalence import _corpus

QUERY = "covid outbreak hospital"
K = 5


def _seed_index(path, shards=None):
    documents = _corpus()
    if shards:
        index = ShardedIndex.from_documents(documents, shards)
    else:
        index = InvertedIndex.from_documents(documents)
    save_v3(index, path)
    return index


class TestReplicaIndex:
    def test_delegates_read_surface(self, tmp_path):
        path = tmp_path / "corpus.idx"
        index = _seed_index(path)
        replica = ReplicaIndex(path)
        try:
            assert len(replica) == len(index)
            assert replica.doc_ids == [d.doc_id for d in index]
            assert "doc-00" in replica
            assert replica.document("doc-00").body == index.document("doc-00").body
            assert list(replica.terms()) == list(index.terms())
            assert replica.storage_info()["replica"] is True
            assert replica.generation == 1
        finally:
            replica.close()

    def test_mutations_raise(self, tmp_path):
        path = tmp_path / "corpus.idx"
        _seed_index(path)
        replica = ReplicaIndex(path)
        try:
            with pytest.raises(ReadOnlyIndexError):
                replica.add(Document("doc-z", "new text"))
            with pytest.raises(ReadOnlyIndexError):
                replica.remove("doc-00")
        finally:
            replica.close()

    def test_refresh_picks_up_commit(self, tmp_path):
        path = tmp_path / "corpus.idx"
        index = _seed_index(path)
        replica = ReplicaIndex(path)
        try:
            assert replica.refresh() is False  # nothing new yet
            version_before = replica.version
            index.add(
                Document("doc-new", "covid outbreak hospital overload again.")
            )
            save_v3(index, path)
            assert replica.refresh() is True
            assert replica.generation == 2
            assert "doc-new" in replica
            # The content fingerprint moved with the commit, so every
            # version-keyed cache above the index invalidates.
            assert replica.version != version_before
            assert replica.refresh() is False  # idempotent
        finally:
            replica.close()

    def test_two_replicas_same_process_agree(self, tmp_path):
        path = tmp_path / "corpus.idx"
        index = _seed_index(path, shards=3)
        first = ReplicaIndex(path)
        second = ReplicaIndex(path)
        try:
            assert first.version == second.version
            engine_a = CredenceEngine.from_index(
                first, config=EngineConfig(ranker="bm25", seed=5)
            )
            engine_b = CredenceEngine.from_index(
                second, config=EngineConfig(ranker="bm25", seed=5)
            )
            assert (
                engine_a.rank(QUERY, K).to_dicts()
                == engine_b.rank(QUERY, K).to_dicts()
            )
            index.add(Document("doc-new", "covid hospital outbreak news."))
            save_v3(index, path)
            assert first.refresh() and second.refresh()
            assert first.version == second.version
            assert (
                engine_a.rank(QUERY, K).to_dicts()
                == engine_b.rank(QUERY, K).to_dicts()
            )
        finally:
            first.close()
            second.close()

    def test_watcher_refreshes_in_background(self, tmp_path):
        path = tmp_path / "corpus.idx"
        index = _seed_index(path)
        replica = ReplicaIndex(path)
        refreshed = []
        try:
            watcher = replica.watch(
                interval=0.05, on_refresh=refreshed.append
            )
            assert isinstance(watcher, GenerationWatcher)
            assert replica.watch(interval=0.05) is watcher  # memoised
            index.add(Document("doc-new", "late breaking covid report."))
            save_v3(index, path)
            deadline = time.monotonic() + 5.0
            # The watcher swaps the generation in before it calls
            # on_refresh, so wait for the callback as well.
            while (
                replica.generation < 2 or not refreshed
            ) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert replica.generation == 2
            assert refreshed == [2]
        finally:
            replica.close()
        assert not replica._watcher.is_alive()


# -- multi-process: one writer, two readers ----------------------------------


def _reader_main(path, barriers, results, slot):
    """Attach the shared index; rank before and after the writer commits."""
    replica = ReplicaIndex(str(path))
    try:
        engine = CredenceEngine.from_index(
            replica, config=EngineConfig(ranker="bm25", seed=5)
        )
        results[f"{slot}-gen1"] = (
            replica.generation,
            replica.version,
            tuple(engine.rank(QUERY, K).doc_ids),
        )
        barriers["ranked_gen1"].wait(timeout=30)
        barriers["committed_gen2"].wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while not replica.refresh() and time.monotonic() < deadline:
            time.sleep(0.05)
        results[f"{slot}-gen2"] = (
            replica.generation,
            replica.version,
            tuple(engine.rank(QUERY, K).doc_ids),
        )
    finally:
        replica.close()


class TestMultiProcessReplicas:
    def test_two_readers_follow_one_writer(self, tmp_path):
        path = tmp_path / "corpus.idx"
        index = _seed_index(path)

        context = multiprocessing.get_context("fork")
        manager = context.Manager()
        results = manager.dict()
        barriers = {
            "ranked_gen1": context.Barrier(3),
            "committed_gen2": context.Barrier(3),
        }
        readers = [
            context.Process(
                target=_reader_main, args=(path, barriers, results, slot)
            )
            for slot in ("reader-a", "reader-b")
        ]
        for reader in readers:
            reader.start()
        try:
            # Both readers have served generation 1; now the writer
            # commits generation 2 while they stay attached.
            barriers["ranked_gen1"].wait(timeout=30)
            index.add(
                Document(
                    "doc-new",
                    "covid outbreak hospital capacity doubled overnight.",
                )
            )
            save_v3(index, path)
            barriers["committed_gen2"].wait(timeout=30)
            for reader in readers:
                reader.join(timeout=60)
                assert reader.exitcode == 0
        finally:
            for reader in readers:
                if reader.is_alive():
                    reader.terminate()
                    reader.join(timeout=10)

        a1, b1 = results["reader-a-gen1"], results["reader-b-gen1"]
        a2, b2 = results["reader-a-gen2"], results["reader-b-gen2"]
        manager.shutdown()
        # Identical generation, fingerprint, and ranking in both readers,
        # before and after the commit.
        assert a1 == b1
        assert a2 == b2
        assert a1[0] == 1 and a2[0] == 2
        assert a1[1] != a2[1]  # fingerprint moved with the commit
        # The new generation actually changed what gets served: the
        # reference engine over the final corpus agrees with the readers.
        reference = CredenceEngine.from_index(
            index, config=EngineConfig(ranker="bm25", seed=5)
        )
        assert tuple(reference.rank(QUERY, K).doc_ids) == a2[2]
