"""Property-based invariants for the tokenizer and analyzer pipeline.

The example-based text suites pin behaviour on curated sentences; these
throw arbitrary unicode (hypothesis when installed, seeded random
otherwise) at the pipeline and assert the structural invariants the
index and the counterfactual explainers rely on: spans are exact and
ordered, token analysis is context-free (the analyzer memo's contract),
and analysis distributes over whitespace concatenation.
"""

import random

from property_support import given, integers, text
from repro.text.analyzer import default_analyzer, surface_analyzer
from repro.text.tokenizer import token_texts, tokenize

ANALYZER = default_analyzer()
SURFACE = surface_analyzer()

#: Word characters whose NFKC form differs from, and is mostly longer
#: than, the character itself; two expand to text with a space inside
#: (U+037A → space + combining mark, U+FDFA → a four-word Arabic phrase),
#: so generated text exercises the whitespace-stripping branch.
NFKC_EXPANDING = "\u037a\ufb01\u2474\u2163\u00bd\ufdfa\ufb00\u01c4\u2460\u00b2"


def with_nfkc_expanding(sample: str, seed: int) -> str:
    """``sample`` with a few NFKC-expanding characters spliced in."""
    rng = random.Random(seed)
    chars = list(sample)
    for _ in range(rng.randint(1, 6)):
        chars.insert(
            rng.randint(0, len(chars)),
            rng.choice(NFKC_EXPANDING) + rng.choice(("", " ", "a", "É")),
        )
    return "".join(chars)


class TestTokenizerProperties:
    @given(sample=text(max_size=200))
    def test_spans_cover_their_text(self, sample):
        for token in tokenize(sample):
            assert sample[token.start:token.end] == token.text

    @given(sample=text(max_size=200))
    def test_spans_are_ordered_and_disjoint(self, sample):
        cursor = 0
        for token in tokenize(sample):
            assert token.start >= cursor
            assert token.end > token.start
            cursor = token.end

    @given(sample=text(max_size=120))
    def test_retokenizing_a_token_is_identity(self, sample):
        # A matched token is itself a single token — the property that
        # lets the builder treat token texts as atomic edit units.
        for token in tokenize(sample):
            assert token_texts(token.text) == [token.text]

    @given(sample=text(max_size=120))
    def test_tokens_contain_no_whitespace(self, sample):
        for token in tokenize(sample):
            assert not any(ch.isspace() for ch in token.text)
            assert "_" not in token.text


class TestAnalyzerProperties:
    @given(sample=text(max_size=200))
    def test_analysis_is_deterministic(self, sample):
        assert ANALYZER.analyze(sample) == ANALYZER.analyze(sample)

    @given(sample=text(max_size=200))
    def test_terms_are_nonempty_and_spaceless(self, sample):
        for term in ANALYZER.analyze(sample):
            assert term
            assert not any(ch.isspace() for ch in term)

    @given(sample=text(max_size=200), seed=integers(0, 2**32 - 1))
    def test_token_analysis_is_context_free(self, sample, seed):
        # The analyzer memoises analyze_token per surface form; that is
        # only sound if a token's analysis never depends on surrounding
        # text, so the memoised entry points must equal the unmemoised
        # pipeline run token by token.
        sample = with_nfkc_expanding(sample, seed)
        for analyzer in (ANALYZER, SURFACE):
            tokens = tokenize(sample)
            expected = [
                (term, token)
                for term, token in (
                    (analyzer._pipeline(token.text), token) for token in tokens
                )
                if term is not None
            ]
            assert analyzer.analyze(sample) == [term for term, _ in expected]
            assert [
                (analyzed.term, analyzed.token)
                for analyzed in analyzer.analyze_tokens(sample)
            ] == expected
            assert analyzer.analyze_unique(sample) == {
                term for term, _ in expected
            }

    @given(left=text(max_size=100), right=text(max_size=100))
    def test_analysis_distributes_over_concatenation(self, left, right):
        # A space is never token-internal, so analysing two texts joined
        # by one must equal the concatenated analyses — the property that
        # makes chunked streaming ingest equivalent to whole-corpus
        # ingest.
        joined = ANALYZER.analyze(f"{left} {right}")
        assert joined == ANALYZER.analyze(left) + ANALYZER.analyze(right)

    @given(sample=text(max_size=200))
    def test_unique_terms_match_sequence(self, sample):
        assert ANALYZER.analyze_unique(sample) == set(ANALYZER.analyze(sample))

    @given(sample=text(max_size=200))
    def test_surface_analysis_is_a_superset(self, sample):
        # The surface analyzer only skips filters; it can never produce
        # *fewer* terms than tokenization, and the default analyzer can
        # never produce more than the surface one.
        assert len(SURFACE.analyze(sample)) <= len(tokenize(sample))
        assert len(ANALYZER.analyze(sample)) <= len(SURFACE.analyze(sample))

    @given(sample=text(max_size=200))
    def test_analyzed_offsets_point_at_source_tokens(self, sample):
        for analyzed in ANALYZER.analyze_tokens(sample):
            assert sample[analyzed.start:analyzed.end] == analyzed.token.text
