"""Paths and loaders for the bundled demo data."""

from __future__ import annotations

import os

from .lexicon import LexiconError, PolarityLexicon, load_collocations, load_lexicon

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

DEMO_LANGUAGES = ("en", "es")
# the bundled data files, installed beside this module as package data
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> Path:
    """Path of a bundled data file."""
    from pathlib import Path

    return Path(_DATA_DIR, name)


def demo_lexicon(language: str = "en") -> PolarityLexicon:
    """Demo review lexicon for ``language`` with its collocation table."""
    if language not in DEMO_LANGUAGES:
        raise LexiconError(
            f"no demo lexicon for language {language!r}; have {DEMO_LANGUAGES}"
        )
    with open(os.path.join(_DATA_DIR, f"lexicon_{language}.tsv"), "rb") as fh:
        lexicon = load_lexicon(fh, language)
    with open(os.path.join(_DATA_DIR, f"collocations_{language}.tsv"), "rb") as fh:
        return lexicon.with_collocations(load_collocations(fh))


def demo_treebank_path() -> Path:
    return data_path("demo_reviews.conllu")


def demo_ud_path() -> Path:
    return data_path("demo_ud.conllu")


def demo_gold_path() -> Path:
    return data_path("demo_reviews.gold.jsonl")
