"""Syntax-guided sentiment analysis over dependency trees.

Trees travel as per-word labels (three invertible encodings with a
repairing decoder), a lexicon-driven rule engine walks the tree to score
sentences and aspect targets, and opinion structures round-trip through
the same label machinery. See the README for the command line interface.

``import treesent`` loads none of the submodules: each public name below
imports its module on first use (PEP 562), so a command pays only for the
modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("demo_gold_path", "demo_lexicon", "demo_treebank_path", "demo_ud_path"), "assets"
    ),
    **dict.fromkeys(
        ("BenchError", "BenchReport", "run_bench", "synthetic_corpus", "synthetic_sentence"),
        "bench",
    ),
    **dict.fromkeys(
        ("ConlluError", "ReadStats", "dumps_conllu", "read_conllu", "write_conllu"), "conllu"
    ),
    **dict.fromkeys(
        (
            "BridgeError",
            "BridgeStats",
            "DecodeResult",
            "LabelSeq",
            "NonProjectiveError",
            "RepairStats",
            "Scheme",
            "SyntaxLabel",
            "decode",
            "emit_multitask_labels",
            "encode",
            "format_tagger_line",
            "parse_tagger_output",
            "repair",
        ),
        "encodings",
    ),
    **dict.fromkeys(
        (
            "ClassMetrics",
            "EvalError",
            "GoldRecord",
            "MetricsReport",
            "ParseMetrics",
            "SentenceMetrics",
            "TargetMetrics",
            "char_span_to_token_span",
            "conversion_coverage",
            "eval_parse",
            "eval_sentences",
            "eval_targets",
            "load_gold",
        ),
        "evaluation",
    ),
    **dict.fromkeys(
        (
            "LexEntry",
            "LexiconError",
            "PolarityLexicon",
            "Shifter",
            "ShifterInventory",
            "load_collocations",
            "load_lexicon",
            "merge_collocations",
        ),
        "lexicon",
    ),
    **dict.fromkeys(
        (
            "Opinion",
            "OpinionError",
            "OpinionSet",
            "decode_sentiment_tree",
            "encode_sentiment_tree",
            "from_tree",
            "random_opinion_set",
            "to_tree",
        ),
        "opinions",
    ),
    **dict.fromkeys(
        (
            "NEGATIVE",
            "NEUTRAL",
            "POSITIVE",
            "RuleConfig",
            "RuleError",
            "SentimentResult",
            "TargetOpinion",
            "TraceStep",
            "analyze",
            "baseline_wordcount",
            "classify_valence",
            "extract_targets",
            "replay_trace",
            "score_tree",
        ),
        "rules",
    ),
    **dict.fromkeys(
        (
            "DataError",
            "DepTree",
            "Token",
            "TreeError",
            "crossing_arcs",
            "is_projective",
            "random_projective_tree",
            "random_tree",
        ),
        "tree",
    ),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
