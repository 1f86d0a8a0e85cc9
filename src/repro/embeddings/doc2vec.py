"""Doc2Vec (Paragraph Vectors) — the PV-DBOW variant of Le & Mikolov 2014.

Method 1 of the paper's instance-based counterfactuals trains "a Doc2Vec
embedding model" and returns the most cosine-similar non-relevant
documents. PV-DBOW learns one vector per document by training it to
predict the document's words against negative samples; it is the variant
gensim defaults to for similarity work and the cheapest to train, which
matches the demo's interactive setting.

Training and inference share one minibatch update kernel,
:func:`_pv_dbow_step`, driven by :func:`_run_epochs`. Each epoch draws
the frequent-word subsampling mask for every token, then walks the kept
tokens in corpus order in fixed blocks of :data:`BLOCK_TOKENS`, drawing
each block's negatives as it goes (the generator yields the same numbers
as one whole-epoch draw). A block is one step: every logit in it is
computed from the parameters as they stood before the block, and the
gradients of all its tokens are summed into the document and
word-output rows they touch. The block size is a constant, not a
parameter: a step's arrays span only the block's distinct words and
documents, so its memory is bounded by the block, never the corpus.
Inference runs the same kernel on a one-row document matrix
with the word-output layer frozen.

Determinism contract: the generator is consumed in a fixed order, the
per-token gradients are summed with ``np.bincount`` (each bin in input
order), and the remaining products have fixed shapes, so one seed gives
a bitwise-identical model on every run — across processes and BLAS
thread counts alike — on a given machine and numpy/BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embeddings.sampling import UnigramTable, sigmoid
from repro.errors import DocumentNotFoundError, TrainingError
from repro.text.vocabulary import Vocabulary
from repro.utils.rng import default_rng
from repro.utils.validation import require, require_positive

#: Tokens per minibatch step, for training and inference alike.
BLOCK_TOKENS = 256


@dataclass
class Doc2Vec:
    """Trained PV-DBOW model: one embedding per training document."""

    vocabulary: Vocabulary
    doc_ids: list[str]
    doc_vectors: np.ndarray  # (num_docs, dimension)
    word_out: np.ndarray  # (vocab, dimension)
    negatives: int
    _unigram_table: UnigramTable
    _rows: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rows = {doc_id: row for row, doc_id in enumerate(self.doc_ids)}

    @property
    def dimension(self) -> int:
        return self.doc_vectors.shape[1]

    def vector(self, doc_id: str) -> np.ndarray:
        try:
            return self.doc_vectors[self._rows[doc_id]]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._rows

    def similarity(self, first: str, second: str) -> float:
        """Cosine similarity between two trained documents."""
        a, b = self.vector(first), self.vector(second)
        denominator = (np.linalg.norm(a) * np.linalg.norm(b)) or 1.0
        return float(a @ b / denominator)

    def most_similar(
        self, doc_id: str, n: int = 10, exclude: set[str] | None = None
    ) -> list[tuple[str, float]]:
        """The ``n`` most cosine-similar documents to ``doc_id``."""
        query = self.vector(doc_id)
        norms = np.linalg.norm(self.doc_vectors, axis=1) * (
            np.linalg.norm(query) or 1.0
        )
        norms[norms == 0] = 1.0
        scores = (self.doc_vectors @ query) / norms
        excluded = set(exclude or ()) | {doc_id}
        ranked = [
            (self.doc_ids[i], float(scores[i]))
            for i in np.argsort(-scores)
            if self.doc_ids[i] not in excluded
        ]
        return ranked[:n]

    def infer_vector(
        self,
        terms: list[str],
        epochs: int = 25,
        learning_rate: float = 0.025,
        seed: int | None = None,
    ) -> np.ndarray:
        """Embed unseen text by gradient steps against frozen word vectors."""
        rng = default_rng(seed)
        word_ids = self.vocabulary.encode(terms)
        vector = (rng.random(self.dimension) - 0.5) / self.dimension
        if not word_ids:
            return vector
        words = np.asarray(word_ids, dtype=np.int64)
        document = vector[None, :]
        _run_epochs(
            document,
            self.word_out,
            rows=np.zeros(len(words), dtype=np.int64),
            words=words,
            table=self._unigram_table,
            negatives=self.negatives,
            epochs=epochs,
            learning_rate=learning_rate,
            rng=rng,
            train_words=False,
        )
        return document[0]


def _pv_dbow_step(
    doc_vectors: np.ndarray,
    word_out: np.ndarray,
    rows: np.ndarray,
    targets: np.ndarray,
    alpha: float,
    train_words: bool,
) -> None:
    """One minibatch PV-DBOW step over a block of tokens.

    ``rows[i]`` is token ``i``'s document row and ``targets[i]`` its
    output words: the observed word first, then its negatives. A block
    touches few distinct rows and words, so the step works on those
    alone: logits are read off their dot-product table, and one
    ``bincount`` folds every token's gradient into a (words × rows)
    coefficient matrix from which both updates follow.
    """
    words, word_slot = np.unique(targets, return_inverse=True)
    docs, doc_slot = np.unique(rows, return_inverse=True)
    word_slot = word_slot.reshape(targets.shape)
    outputs = word_out[words]  # (words, dimension)
    vectors = doc_vectors[docs]  # (docs, dimension)
    gradient = sigmoid((outputs @ vectors.T)[word_slot, doc_slot[:, None]])
    gradient[:, 0] -= 1.0
    coefficients = np.bincount(
        (word_slot * len(docs) + doc_slot[:, None]).ravel(),
        weights=(alpha * gradient).ravel(),
        minlength=len(words) * len(docs),
    ).reshape(len(words), len(docs))
    if train_words:
        word_out[words] -= coefficients @ vectors
    doc_vectors[docs] -= coefficients.T @ outputs


def _run_epochs(
    doc_vectors: np.ndarray,
    word_out: np.ndarray,
    rows: np.ndarray,
    words: np.ndarray,
    table: UnigramTable,
    negatives: int,
    epochs: int,
    learning_rate: float,
    rng: np.random.Generator,
    train_words: bool = True,
    keep_probability: np.ndarray | None = None,
) -> None:
    """Train ``doc_vectors`` (and ``word_out`` if ``train_words``) in place.

    ``rows``/``words`` list every token as (document row, word id) in
    corpus order; ``keep_probability`` enables per-epoch subsampling.
    """
    for epoch in range(epochs):
        alpha = learning_rate * (1.0 - epoch / epochs) + 1e-4
        epoch_rows, epoch_words = rows, words
        if keep_probability is not None:
            kept = rng.random(len(words)) < keep_probability[words]
            epoch_rows, epoch_words = rows[kept], words[kept]
        for start in range(0, len(epoch_words), BLOCK_TOKENS):
            block_words = epoch_words[start : start + BLOCK_TOKENS]
            noise = table.sample(rng, len(block_words) * negatives)
            targets = np.column_stack(
                (block_words, noise.reshape(len(block_words), negatives))
            )
            _pv_dbow_step(
                doc_vectors,
                word_out,
                epoch_rows[start : start + BLOCK_TOKENS],
                targets,
                alpha,
                train_words,
            )


def train_doc2vec(
    documents: dict[str, list[str]],
    dimension: int = 64,
    negatives: int = 5,
    epochs: int = 100,
    learning_rate: float = 0.025,
    min_count: int = 1,
    subsample: float | None = 1e-2,
    seed: int | np.random.Generator | None = None,
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

    encoded = [vocabulary.encode(documents[doc_id]) for doc_id in doc_ids]
    words = np.fromiter(
        (word_id for word_ids in encoded for word_id in word_ids), dtype=np.int64
    )
    rows = np.repeat(
        np.arange(len(doc_ids), dtype=np.int64), [len(ids) for ids in encoded]
    )
    counts = np.array(
        [vocabulary.frequency(vocabulary.term_of(i)) for i in range(len(vocabulary))],
        dtype=np.float64,
    )
    table = UnigramTable(counts)
    keep_probability = None
    if subsample is not None:
        frequency = counts / counts.sum()
        keep_probability = np.minimum(
            1.0, np.sqrt(subsample / frequency) + subsample / frequency
        )

    doc_vectors = (rng.random((len(doc_ids), dimension)) - 0.5) / dimension
    word_out = np.zeros((len(vocabulary), dimension))
    _run_epochs(
        doc_vectors,
        word_out,
        rows=rows,
        words=words,
        table=table,
        negatives=negatives,
        epochs=epochs,
        learning_rate=learning_rate,
        rng=rng,
        keep_probability=keep_probability,
    )
    return Doc2Vec(
        vocabulary=vocabulary,
        doc_ids=doc_ids,
        doc_vectors=doc_vectors,
        word_out=word_out,
        negatives=negatives,
        _unigram_table=table,
    )
