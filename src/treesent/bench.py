"""Throughput measurement for the label-decode plus rule-scoring path.

The benchmark consumes tagger-bridge lines (real files or a synthetic
corpus), decodes every sentence to a tree, and scores it with the rule
engine. Three stages are timed: ``read`` (pulling lines off the source),
``decode`` (bridge parsing, label decoding, repairs), and ``rules``
(sentiment analysis, untraced as in ``analyze`` without ``--explain``).
A short warmup pass runs before the clock starts.

With several workers the corpus is split into one contiguous chunk per
worker, run through ``analyze``'s pool driver; per-stage wall time is then
the slowest worker's, and aggregate outputs (counts, class tallies, repairs)
are identical to the single-worker run because sentences are independent.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from .conllu import numbered_lines
from .encodings import BridgeStats, Scheme, encode, format_tagger_line, parse_tagger_output
from .lexicon import PolarityLexicon
from .rules import CLASSES, RuleConfig, analyze
from .tree import DepTree, random_projective_tree

if TYPE_CHECKING:
    from .conllu import Source

MIN_CORPUS = 1000

# neutral everyday tokens so synthetic sentences are not wall-to-wall sentiment
_FILLER_WORDS: Tuple[Tuple[str, str], ...] = (
    ("the", "DET"), ("this", "DET"), ("a", "DET"),
    ("phone", "NOUN"), ("camera", "NOUN"), ("battery", "NOUN"),
    ("screen", "NOUN"), ("case", "NOUN"), ("box", "NOUN"),
    ("it", "PRON"), ("is", "AUX"), ("was", "AUX"),
    ("works", "VERB"), ("arrived", "VERB"), ("and", "CCONJ"),
)


class BenchError(ValueError):
    """Bad benchmark parameters."""


@dataclass(frozen=True)
class BenchReport:
    """One benchmark run; every stage wall is bounded by the total."""

    sentences: int
    tokens: int
    read_time: float
    decode_time: float
    rules_time: float
    total_time: float
    sentences_per_sec: float
    tokens_per_sec: float
    repairs: int
    workers: int
    classes: Mapping[str, int]
    peak_rss_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("read_time", "decode_time", "rules_time"):
            stage = getattr(self, name)
            if stage < 0 or stage > self.total_time:
                raise BenchError(f"{name} {stage:.6f}s exceeds total {self.total_time:.6f}s")

    def to_dict(self) -> dict:
        return {
            "sentences": self.sentences,
            "tokens": self.tokens,
            "workers": self.workers,
            "time": {
                "read": self.read_time,
                "decode": self.decode_time,
                "rules": self.rules_time,
                "total": self.total_time,
            },
            "sentences_per_sec": self.sentences_per_sec,
            "tokens_per_sec": self.tokens_per_sec,
            "repairs": self.repairs,
            "classes": dict(self.classes),
            "peak_rss_bytes": self.peak_rss_bytes,
        }


def word_pool(lexicon: PolarityLexicon) -> List[Tuple[str, str]]:
    pool = list(_FILLER_WORDS)
    for entry in lexicon.entries():
        pool.append((entry.term, entry.upos_filter or "ADJ"))
    shifters = lexicon.shifters
    pool.extend((word, "PART") for word in sorted(shifters.negators))
    pool.extend((word, "ADV") for word in sorted(shifters.intensifiers))
    pool.extend((word, "CCONJ") for word in sorted(shifters.adversatives))
    return pool


def synthetic_sentence(
    length: int, pool: Sequence[Tuple[str, str]], seed: int, sentence_id: str
) -> DepTree:
    """Random projective tree wearing words drawn from the pool."""
    if length < 1:
        raise BenchError(f"sentence length must be >= 1, got {length}")
    shape = random_projective_tree(length, seed=seed)
    rng = random.Random(seed ^ 0x5EED)
    picks = [rng.choice(pool) for _ in range(length)]
    return DepTree.build(
        shape.heads,
        deprels=shape.deprels,
        forms=[form for form, _ in picks],
        upos=[tag for _, tag in picks],
        sentence_id=sentence_id,
    )


def synthetic_trees(
    sentences: int, length: int, lexicon: PolarityLexicon, seed: int = 0
) -> Iterator[DepTree]:
    """Deterministic synthetic sentences ``syn-0``, ``syn-1``, ...: same
    arguments, same trees. Bad arguments raise here, not on first use."""
    if sentences < 1:
        raise BenchError(f"corpus size must be >= 1, got {sentences}")
    pool = word_pool(lexicon)
    # built now, so that a bad length raises before the caller acts
    first = synthetic_sentence(length, pool, seed * 1_000_003, "syn-0")
    rest = (
        synthetic_sentence(length, pool, seed * 1_000_003 + index, f"syn-{index}")
        for index in range(1, sentences)
    )
    return itertools.chain((first,), rest)


def synthetic_corpus(
    sentences: int,
    length: int,
    lexicon: PolarityLexicon,
    seed: int = 0,
    scheme: Scheme = Scheme.REL_OFFSET,
) -> Iterator[str]:
    """Deterministic bridge lines: same arguments, same corpus. Bad
    arguments raise here, not on first use."""
    trees = synthetic_trees(sentences, length, lexicon, seed)
    return (format_tagger_line(tree, encode(tree, scheme)) for tree in trees)


class _ChunkResult(NamedTuple):
    sentences: int
    tokens: int
    repairs: int
    decode_time: float
    rules_time: float
    classes: Dict[str, int]


def _bench_chunk(args) -> _ChunkResult:
    lines, lexicon, config, scheme = args
    stats = BridgeStats()
    started = perf_counter()
    trees = []
    for _, result in parse_tagger_output(lines, scheme, on_error="abort", stats=stats):
        trees.append(result.tree)
    decode_time = perf_counter() - started
    classes = {label: 0 for label in CLASSES}
    started = perf_counter()
    for tree in trees:
        classes[analyze(tree, lexicon, config, trace=False).sentence_class] += 1
    rules_time = perf_counter() - started
    return _ChunkResult(
        len(trees),
        sum(len(tree) for tree in trees),
        stats.repairs.total,
        decode_time,
        rules_time,
        classes,
    )


def _peak_rss() -> Optional[int]:
    try:
        import resource

        kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(kilobytes) * 1024
    except Exception:
        return None


def run_bench(
    source: Source,
    lexicon: PolarityLexicon,
    config: Optional[RuleConfig] = None,
    scheme: Scheme = Scheme.REL_OFFSET,
    workers: int = 1,
    warmup: int = 50,
) -> BenchReport:
    """Time the decode and rules stages over a bridge-format corpus."""
    if workers < 1:
        raise BenchError(f"worker count must be >= 1, got {workers}")
    config = config if config is not None else RuleConfig()

    started = perf_counter()
    lines = []
    for lineno, line in numbered_lines(source):
        if line is None:
            raise BenchError(f"line {lineno}: not valid UTF-8")
        if line.strip():
            lines.append(line)
    read_time = perf_counter() - started
    if len(lines) < MIN_CORPUS:
        warnings.warn(
            f"benchmark corpus has {len(lines)} sentences; "
            f"results below {MIN_CORPUS} are noisy",
            RuntimeWarning,
            stacklevel=2,
        )

    if warmup > 0 and lines:
        _bench_chunk((lines[: min(warmup, len(lines))], lexicon, config, scheme))

    started = perf_counter()
    if workers == 1:
        results = [_bench_chunk((lines, lexicon, config, scheme))]
    else:
        from .cli import _map_chunks

        step = max(1, -(-len(lines) // workers))
        chunks = [(lines[i : i + step], lexicon, config, scheme)
                  for i in range(0, len(lines), step)]
        results = list(_map_chunks(_bench_chunk, chunks, workers))
    processing_time = perf_counter() - started

    total_time = read_time + processing_time
    sentences = sum(r.sentences for r in results)
    tokens = sum(r.tokens for r in results)
    classes = {label: 0 for label in CLASSES}
    for result in results:
        for label, count in result.classes.items():
            classes[label] += count
    return BenchReport(
        sentences=sentences,
        tokens=tokens,
        read_time=read_time,
        decode_time=max((r.decode_time for r in results), default=0.0),
        rules_time=max((r.rules_time for r in results), default=0.0),
        total_time=total_time,
        sentences_per_sec=sentences / total_time if total_time else 0.0,
        tokens_per_sec=tokens / total_time if total_time else 0.0,
        repairs=sum(r.repairs for r in results),
        workers=workers,
        classes=classes,
        peak_rss_bytes=_peak_rss(),
    )
