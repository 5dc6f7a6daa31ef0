"""Paths and loaders for the bundled demo data."""

from __future__ import annotations

from pathlib import Path

from .lexicon import LexiconError, PolarityLexicon, load_collocations, load_lexicon

DEMO_LANGUAGES = ("en", "es")


def data_path(name: str) -> Path:
    """Path of a bundled data file, installed beside this module as package data."""
    return Path(__file__).with_name("data") / name


def demo_lexicon(language: str = "en") -> PolarityLexicon:
    """Demo review lexicon for ``language`` with its collocation table."""
    if language not in DEMO_LANGUAGES:
        raise LexiconError(
            f"no demo lexicon for language {language!r}; have {DEMO_LANGUAGES}"
        )
    with data_path(f"lexicon_{language}.tsv").open("rb") as fh:
        lexicon = load_lexicon(fh, language)
    with data_path(f"collocations_{language}.tsv").open("rb") as fh:
        return lexicon.with_collocations(load_collocations(fh))


def demo_treebank_path() -> Path:
    return data_path("demo_reviews.conllu")


def demo_ud_path() -> Path:
    return data_path("demo_ud.conllu")


def demo_gold_path() -> Path:
    return data_path("demo_reviews.gold.jsonl")
