"""The analyzer pipeline shared by the index, rankers, and explainers.

An :class:`Analyzer` turns raw text into index terms the way Lucene's
analyzer chain does: tokenize → normalise → stopword-filter → stem. The
same instance must be shared by every component of an engine, because the
counterfactual algorithms reason about *terms* ("which query terms does
this sentence contain?"), and that question only has a consistent answer
if everyone analyses text identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import ENGLISH_STOPWORDS
from repro.text.tokenizer import Token, iter_tokens, token_texts
from repro.text.unicode import normalize_text

#: Distinct surface forms an analyzer remembers before it starts over.
#: The 10k-document Zipfian corpus needs about 32k entries (~4.4 MB), the
#: demo corpus a few hundred. Clearing when full, instead of evicting
#: entry by entry, keeps a lookup one dict probe.
_MEMO_LIMIT = 1 << 17

_ABSENT = object()


@dataclass(frozen=True)
class AnalyzedToken:
    """An index term plus the source token it came from."""

    term: str
    token: Token

    @property
    def start(self) -> int:
        return self.token.start

    @property
    def end(self) -> int:
        return self.token.end


@dataclass(frozen=True)
class Analyzer:
    """Configurable text-analysis pipeline.

    Parameters mirror Anserini's defaults: lowercase + fold, English
    stopwords, Porter stemming. Disable stemming/stopwords for components
    that need surface forms (e.g. the query-augmentation explainer shows
    users real document terms, not stems).

    Token analysis is context-free, so each analyzer memoises it per
    distinct surface form: every caller sharing the instance (index,
    rankers, sessions, explainers) pays the normalise/stopword/stem
    pipeline once per form. The analyzer is frozen, so the memo can never
    go stale, and two analyzers compare equal when their configurations
    do; the memo and the stemmer take no part in equality, ``repr`` or
    :meth:`to_config`.
    """

    lowercase: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    stopwords: frozenset[str] = ENGLISH_STOPWORDS
    min_token_length: int = 1
    _stemmer: PorterStemmer = field(
        default_factory=PorterStemmer, repr=False, compare=False
    )
    _memo: dict[str, str | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _pipeline(self, text: str) -> str | None:
        """The unmemoised per-token pipeline behind :meth:`analyze_token`."""
        term = normalize_text(text, casefold=self.lowercase)
        if any(ch.isspace() for ch in term):
            # NFKC can expand a single word character into a sequence
            # containing a space (e.g. U+037A → " ι"); an index term with
            # embedded whitespace could never match a tokenized query.
            term = "".join(ch for ch in term if not ch.isspace())
        if len(term) < self.min_token_length:
            return None
        if self.remove_stopwords and term in self.stopwords:
            return None
        if self.stem:
            term = self._stemmer.stem(term)
        return term or None

    def analyze_token(self, text: str) -> str | None:
        """Analyse one raw token; None if the pipeline filters it out."""
        memo = self._memo
        term = memo.get(text, _ABSENT)
        if term is _ABSENT:
            term = self._pipeline(text)
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[text] = term
        return term

    def analyze_tokens(self, text: str) -> list[AnalyzedToken]:
        """Analyse ``text``, keeping each term's source token and offsets."""
        result: list[AnalyzedToken] = []
        for token in iter_tokens(text):
            term = self.analyze_token(token.text)
            if term is not None:
                result.append(AnalyzedToken(term, token))
        return result

    def analyze(self, text: str) -> list[str]:
        """Analyse ``text`` and return the term sequence.

        >>> Analyzer().analyze("The outbreaks were spreading!")
        ['outbreak', 'spread']
        """
        lookup = self._memo.get
        terms: list[str] = []
        for raw in token_texts(text):
            term = lookup(raw, _ABSENT)
            if term is _ABSENT:
                term = self.analyze_token(raw)
            if term is not None:
                terms.append(term)
        return terms

    def analyze_unique(self, text: str) -> set[str]:
        """Analyse ``text`` and return the set of distinct terms."""
        return set(self.analyze(text))

    def term_of(self, word: str) -> str | None:
        """Analyse a single word; None if it is filtered out entirely."""
        terms = self.analyze(word)
        return terms[0] if terms else None

    # -- persistence -----------------------------------------------------------

    #: Fields excluded from :meth:`to_config`: runtime-only state and the
    #: stopword set (persisting the full list would bloat every index
    #: file; deployments customising stopwords persist them separately).
    _NON_CONFIG_FIELDS = ("stopwords", "_stemmer", "_memo")

    def to_config(self) -> dict:
        """This analyzer's persistable configuration.

        Enumerated from the dataclass fields, so a newly added analyzer
        option is saved automatically — the save and load sides can no
        longer silently desync (the bug the hard-coded four-field dict
        in ``index/storage.py`` used to invite).
        """
        from dataclasses import fields

        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in self._NON_CONFIG_FIELDS
        }

    @classmethod
    def from_config(cls, config: dict) -> "Analyzer":
        """Rebuild an analyzer from :meth:`to_config` output.

        Unknown keys raise (a config written by a *newer* analyzer must
        not load lossily); missing keys fall back to the field defaults,
        which keeps historical ``FORMAT_VERSION`` 1 payloads loading.
        """
        from dataclasses import fields

        known = {
            spec.name
            for spec in fields(cls)
            if spec.name not in cls._NON_CONFIG_FIELDS
        }
        unknown = set(config) - known
        if unknown:
            raise ValueError(
                f"unknown analyzer config key(s): {', '.join(sorted(unknown))}"
            )
        return cls(**dict(config))


def default_analyzer() -> Analyzer:
    """The library-default analyzer (lowercase, stopwords, Porter)."""
    return Analyzer()


def surface_analyzer() -> Analyzer:
    """An analyzer that keeps surface forms (no stemming, keep stopwords).

    Used where explanations must display user-recognisable terms.
    """
    return Analyzer(remove_stopwords=False, stem=False)
