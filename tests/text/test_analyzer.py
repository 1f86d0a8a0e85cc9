"""Tests for the shared analyzer pipeline."""

import dataclasses

import pytest

from repro.text.analyzer import Analyzer, default_analyzer, surface_analyzer


class TestDefaultAnalyzer:
    def test_full_pipeline(self):
        analyzer = default_analyzer()
        assert analyzer.analyze("The outbreaks were spreading!") == [
            "outbreak",
            "spread",
        ]

    def test_stopwords_removed(self):
        assert default_analyzer().analyze("the and of") == []

    def test_case_folded(self):
        analyzer = default_analyzer()
        assert analyzer.analyze("COVID Covid covid") == ["covid"] * 3

    def test_accents_folded(self):
        assert default_analyzer().analyze("café") == ["cafe"]

    def test_hyphenated_terms_survive(self):
        assert "covid-19" in default_analyzer().analyze("the COVID-19 articles")

    def test_offsets_preserved_through_analysis(self):
        text = "The Outbreak Spread."
        analyzer = default_analyzer()
        for analyzed in analyzer.analyze_tokens(text):
            surface = text[analyzed.start : analyzed.end]
            assert surface == analyzed.token.text

    def test_analyze_unique(self):
        terms = default_analyzer().analyze_unique("covid covid outbreak")
        assert terms == {"covid", "outbreak"}

    def test_term_of_single_word(self):
        assert default_analyzer().term_of("Outbreaks") == "outbreak"

    def test_term_of_stopword_is_none(self):
        assert default_analyzer().term_of("the") is None


class TestConfigurations:
    def test_surface_analyzer_keeps_everything(self):
        analyzer = surface_analyzer()
        assert analyzer.analyze("The Outbreaks") == ["the", "outbreaks"]

    def test_no_stemming(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.analyze("outbreaks spreading") == ["outbreaks", "spreading"]

    def test_min_token_length(self):
        analyzer = Analyzer(min_token_length=3, remove_stopwords=False, stem=False)
        assert analyzer.analyze("a of the cat") == ["the", "cat"]

    def test_shared_meaning_of_term(self):
        # The same analyzer must give identical terms for query and document —
        # the consistency the counterfactual algorithms rely on.
        analyzer = default_analyzer()
        query_terms = set(analyzer.analyze("covid outbreak"))
        doc_terms = set(
            analyzer.analyze("The COVID outbreaks are spreading everywhere.")
        )
        assert query_terms <= doc_terms


class TestIdentity:
    def test_equal_configs_compare_equal(self):
        first, second = Analyzer(), default_analyzer()
        second.analyze("a warm memo and a cold one")
        assert first.to_config() == second.to_config()
        assert first == second
        assert hash(first) == hash(second)
        assert Analyzer(stem=False) != first
        assert Analyzer.from_config(surface_analyzer().to_config()) == (
            surface_analyzer()
        )

    def test_fields_cannot_be_assigned(self):
        analyzer = default_analyzer()
        with pytest.raises(dataclasses.FrozenInstanceError):
            analyzer.stem = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            analyzer._memo = {}

    def test_memo_is_not_in_repr_or_config(self):
        analyzer = default_analyzer()
        analyzer.analyze("outbreaks")
        assert "_memo" not in repr(analyzer)
        assert "outbreak" not in repr(analyzer)
        assert set(analyzer.to_config()) == {
            "lowercase", "remove_stopwords", "stem", "min_token_length",
        }
