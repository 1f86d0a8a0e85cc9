"""Regex tokenisation with character offsets.

Offsets let the counterfactual builder map token-level perturbations
(remove / replace a term) back onto the original document text without
corrupting surrounding formatting — the property the paper relies on when
rendering strikethrough sentences and edited documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

# A token is a run of word characters (Unicode letters and digits),
# optionally with internal hyphens, apostrophes, or dots (so ``covid-19``,
# ``don't``, ``café`` and ``u.s.`` stay whole).
_TOKEN_RE = re.compile(r"[^\W_]+(?:[-'./][^\W_]+)*")


@dataclass(frozen=True)
class Token:
    """A surface token and its ``[start, end)`` span in the source text."""

    text: str
    start: int
    end: int

    def __post_init__(self):
        if self.end - self.start != len(self.text):
            raise ValueError(
                f"span [{self.start}, {self.end}) does not cover {self.text!r}"
            )

    def __str__(self) -> str:
        return self.text


def iter_tokens(text: str) -> Iterator[Token]:
    """Yield :class:`Token` objects for every lexical token in ``text``."""
    for match in _TOKEN_RE.finditer(text):
        yield Token(match.group(), match.start(), match.end())


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text``, preserving offsets.

    >>> [t.text for t in tokenize("COVID-19 spreads fast.")]
    ['COVID-19', 'spreads', 'fast']
    """
    return list(iter_tokens(text))


def token_texts(text: str) -> list[str]:
    """Tokenise and return surface strings only (no :class:`Token` objects)."""
    return _TOKEN_RE.findall(text)
