"""The minibatch Doc2Vec trainer against the per-token reference oracle.

Both trainers optimise the same PV-DBOW objective from the same seed but
take different SGD paths, so their vectors differ; what must agree is
the neighbourhood structure the instance explainer reads. Checked on the
demo corpus at the demo configuration (dimension 64, 100 epochs, the
demo seed).
"""

import numpy as np
import pytest
from reference_doc2vec import train_doc2vec as reference_train_doc2vec

from repro.datasets.covid import FAKE_NEWS_DOC_ID, NEAR_COPY_DOC_ID
from repro.demo import DEMO_SEED
from repro.embeddings.doc2vec import train_doc2vec

DEMO_CONFIG = {"dimension": 64, "epochs": 100, "seed": DEMO_SEED}


@pytest.fixture(scope="module")
def analyzed(bm25_engine):
    index = bm25_engine.index
    return {
        document.doc_id: index.analyzer.analyze(document.body) for document in index
    }


@pytest.fixture(scope="module")
def oracle(analyzed):
    """The per-token reference model; the slow part, trained once."""
    return reference_train_doc2vec(analyzed, **DEMO_CONFIG)


@pytest.fixture(scope="module")
def minibatch(analyzed):
    return train_doc2vec(analyzed, **DEMO_CONFIG)


def _top(model, doc_id, n):
    return [neighbour for neighbour, _ in model.most_similar(doc_id, n=n)]


def test_near_copy_is_nearest_under_both_trainers(oracle, minibatch):
    for model in (oracle, minibatch):
        assert _top(model, FAKE_NEWS_DOC_ID, 1) == [NEAR_COPY_DOC_ID]


def test_top5_neighbours_agree_with_oracle(oracle, minibatch):
    overlaps = [
        len(set(_top(oracle, doc_id, 5)) & set(_top(minibatch, doc_id, 5))) / 5
        for doc_id in oracle.doc_ids
    ]
    assert np.mean(overlaps) >= 0.85
