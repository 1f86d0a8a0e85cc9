"""Reference oracle for the PV-DBOW trainer: the original per-token loop.

Deliberately simple and slow: one Python iteration per token per epoch,
each a single SGD step against the current parameters. The library's
minibatch trainer (``repro.embeddings.doc2vec``) optimises the same
objective in fixed-size vectorised blocks; ``test_doc2vec_oracle.py``
checks that both land on the same neighbourhood structure. Kept out of
``src/`` so nothing in the library can select it.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.doc2vec import Doc2Vec
from repro.embeddings.sampling import UnigramTable, sigmoid
from repro.errors import TrainingError
from repro.text.vocabulary import Vocabulary
from repro.utils.rng import default_rng
from repro.utils.validation import require, require_positive


def train_doc2vec(
    documents: dict[str, list[str]],
    dimension: int = 64,
    negatives: int = 5,
    epochs: int = 100,
    learning_rate: float = 0.025,
    min_count: int = 1,
    subsample: float | None = 1e-2,
    seed: int | None = None,
) -> Doc2Vec:
    """Train PV-DBOW document embeddings.

    Args:
        documents: mapping of doc_id → analyzed term sequence.
        subsample: frequent-word subsampling threshold (word2vec's ``t``).
            Without it, corpus-wide frequent terms dominate every update
            and all document vectors collapse onto one direction; ``1e-2``
            suits the small corpora this library targets (gensim's default
            ``1e-3`` assumes web-scale text). ``None`` disables.
    """
    require_positive(dimension, "dimension")
    require_positive(epochs, "epochs")
    require(bool(documents), "documents must be non-empty")
    rng = default_rng(seed)
    doc_ids = list(documents)
    vocabulary = Vocabulary.from_documents(documents.values(), min_count=min_count)
    if len(vocabulary) == 0:
        raise TrainingError("empty vocabulary: no trainable terms")

    encoded = {doc_id: vocabulary.encode(documents[doc_id]) for doc_id in doc_ids}
    counts = np.array(
        [vocabulary.frequency(vocabulary.term_of(i)) for i in range(len(vocabulary))],
        dtype=np.float64,
    )
    table = UnigramTable(counts)
    keep_probability = np.ones(len(vocabulary))
    if subsample is not None:
        frequency = counts / counts.sum()
        keep_probability = np.minimum(
            1.0, np.sqrt(subsample / frequency) + subsample / frequency
        )

    doc_vectors = (rng.random((len(doc_ids), dimension)) - 0.5) / dimension
    word_out = np.zeros((len(vocabulary), dimension))

    for epoch in range(epochs):
        alpha = learning_rate * (1.0 - epoch / epochs) + 1e-4
        for row, doc_id in enumerate(doc_ids):
            word_ids = encoded[doc_id]
            if not word_ids:
                continue
            for word_id in word_ids:
                if keep_probability[word_id] < 1.0 and (
                    rng.random() > keep_probability[word_id]
                ):
                    continue
                negative_ids = table.sample(rng, negatives)
                targets = np.concatenate(([word_id], negative_ids))
                labels = np.zeros(len(targets))
                labels[0] = 1.0
                outputs = word_out[targets]
                vector = doc_vectors[row]
                predictions = sigmoid(outputs @ vector)
                gradient = (predictions - labels)[:, None]
                word_out[targets] -= alpha * gradient * vector
                doc_vectors[row] -= alpha * (gradient * outputs).sum(axis=0)

    return Doc2Vec(
        vocabulary=vocabulary,
        doc_ids=doc_ids,
        doc_vectors=doc_vectors,
        word_out=word_out,
        negatives=negatives,
        _unigram_table=table,
    )
