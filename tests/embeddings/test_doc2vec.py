"""Tests for PV-DBOW Doc2Vec."""

import numpy as np
import pytest

from repro.embeddings.doc2vec import train_doc2vec
from repro.errors import ConfigurationError, DocumentNotFoundError

DOCS = {
    "covid-a": "covid outbreak city hospital cases covid outbreak".split(),
    "covid-b": "covid outbreak spread hospital doctors covid".split(),
    "covid-c": "covid vaccine trial doctors results".split(),
    "fin-a": "market stocks rally investors shares earnings".split(),
    "fin-b": "market stocks earnings investors trading bonds".split(),
    "weather-a": "storm rainfall flooding forecast winds drought".split(),
}


@pytest.fixture(scope="module")
def model():
    return train_doc2vec(DOCS, dimension=24, epochs=120, seed=5)


class TestTraining:
    def test_empty_documents_rejected(self):
        with pytest.raises(ConfigurationError):
            train_doc2vec({})

    def test_deterministic(self):
        a = train_doc2vec(DOCS, dimension=8, epochs=5, seed=2)
        b = train_doc2vec(DOCS, dimension=8, epochs=5, seed=2)
        assert np.array_equal(a.doc_vectors, b.doc_vectors)
        assert np.array_equal(a.word_out, b.word_out)

    def test_generator_seed_matches_integer_seed(self):
        a = train_doc2vec(DOCS, dimension=8, epochs=5, seed=2)
        b = train_doc2vec(
            DOCS, dimension=8, epochs=5, seed=np.random.default_rng(2)
        )
        assert np.array_equal(a.doc_vectors, b.doc_vectors)
        assert np.array_equal(a.word_out, b.word_out)

    def test_empty_document_keeps_initial_vector(self):
        documents = {**DOCS, "blank": []}
        short = train_doc2vec(documents, dimension=8, epochs=1, seed=2)
        long = train_doc2vec(documents, dimension=8, epochs=30, seed=2)
        # The initial vectors are the generator's first draw, so they do
        # not depend on the epoch count; only trained rows move.
        assert np.array_equal(long.vector("blank"), short.vector("blank"))
        assert not np.array_equal(long.vector("covid-a"), short.vector("covid-a"))

    def test_every_document_trains_across_blocks(self):
        # More tokens than one block, so documents straddle block edges.
        documents = {
            f"{name}-{copy}": terms
            for name, terms in DOCS.items()
            for copy in range(60)
        }
        short = train_doc2vec(documents, dimension=8, epochs=1, seed=2)
        long = train_doc2vec(documents, dimension=8, epochs=3, seed=2)
        assert np.isfinite(long.doc_vectors).all()
        moved = (long.doc_vectors != short.doc_vectors).any(axis=1)
        assert moved.all()

    def test_contains_and_vector(self, model):
        assert "covid-a" in model
        assert "ghost" not in model
        assert model.vector("covid-a").shape == (24,)
        for row, doc_id in enumerate(model.doc_ids):
            assert np.array_equal(model.vector(doc_id), model.doc_vectors[row])

    def test_unknown_doc_raises(self, model):
        with pytest.raises(DocumentNotFoundError):
            model.vector("ghost")


class TestSimilarityStructure:
    def test_same_topic_more_similar_than_cross_topic(self, model):
        same = model.similarity("covid-a", "covid-b")
        cross = model.similarity("covid-a", "weather-a")
        assert same > cross

    def test_similarity_symmetric(self, model):
        assert model.similarity("covid-a", "fin-a") == pytest.approx(
            model.similarity("fin-a", "covid-a")
        )

    def test_most_similar_excludes_self(self, model):
        neighbours = [doc for doc, _ in model.most_similar("covid-a", n=5)]
        assert "covid-a" not in neighbours

    def test_most_similar_respects_exclusions(self, model):
        neighbours = [
            doc
            for doc, _ in model.most_similar(
                "covid-a", n=5, exclude={"covid-b", "covid-c"}
            )
        ]
        assert "covid-b" not in neighbours
        assert "covid-c" not in neighbours

    def test_most_similar_sorted(self, model):
        scores = [s for _, s in model.most_similar("covid-a", n=5)]
        assert scores == sorted(scores, reverse=True)


class TestInference:
    def test_infer_vector_near_topic(self, model):
        inferred = model.infer_vector(
            "covid outbreak hospital cases".split(), epochs=40, seed=3
        )
        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        covid_sim = cosine(inferred, model.vector("covid-a"))
        weather_sim = cosine(inferred, model.vector("weather-a"))
        assert covid_sim > weather_sim

    def test_infer_empty_terms_gives_small_vector(self, model):
        vector = model.infer_vector([], seed=1)
        assert vector.shape == (model.dimension,)

    def test_infer_deterministic(self, model):
        a = model.infer_vector(["covid", "outbreak"], epochs=5, seed=7)
        b = model.infer_vector(["covid", "outbreak"], epochs=5, seed=7)
        assert np.array_equal(a, b)

    def test_infer_leaves_model_frozen(self, model):
        doc_vectors, word_out = model.doc_vectors.copy(), model.word_out.copy()
        model.infer_vector("covid outbreak hospital".split() * 200, seed=7)
        assert np.array_equal(model.doc_vectors, doc_vectors)
        assert np.array_equal(model.word_out, word_out)
