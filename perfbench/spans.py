"""Span recording and the traced, in-process drive of each workload.

The traced run does not instrument the package. It drives the workload's
own input files through the public functions of each module, the way the
command does, holding and streaming sentences as the command holds and
streams them, and puts a span around every call into a layer. Work that
happens inside a call and cannot be reached from outside (tree validation
inside ``read_conllu``, ``decode`` inside ``parse_tagger_output``, lexicon
lookups inside ``analyze``) is measured by replaying the same call on the
same data in a span of its own.

Spans are kept in flat arrays while the run goes and written out at its
end. Each has a name, a start, an end, its parent span and the sentence
index. A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import pickle
from array import array
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from treesent import (
    BridgeStats,
    DepTree,
    RuleConfig,
    Scheme,
    analyze,
    decode,
    demo_lexicon,
    encode,
    format_tagger_line,
    merge_collocations,
    parse_tagger_output,
    read_conllu,
)
from treesent.conllu import ReadStats, format_sentence
from treesent.rules import extract_targets, score_tree
from treesent.tree import crossing_arcs

# spans of the drive's own glue; they carry no layer's work
GLUE_PREFIX = "drive."


class Tracer:
    """Records nested spans; ``begin`` returns the index ``end`` takes."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.sentence = array("i")
        self.replay = array("b")
        self._open = -1

    def record(self, name: str, start: float, end: float, parent: int, sentence: int,
               replay: bool = False) -> int:
        """Append a finished span; used for hand-built span trees."""
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        self.name.append(ix)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.sentence.append(sentence)
        self.replay.append(replay)
        return len(self.start) - 1

    def begin(self, name: str, sentence: int = -1, replay: bool = False) -> int:
        """Open a span; ``replay`` marks a call the command itself does not make."""
        span = self.record(name, 0.0, 0.0, self._open, sentence, replay)
        self._open = span
        self.start[span] = perf_counter()
        return span

    def end_(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._open = self.parent[span]

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Total self time per span name over the spans from ``first`` on."""
        last = len(self)
        children: Dict[int, List[int]] = {}
        for i in range(first, last):
            if self.parent[i] >= first:
                children.setdefault(self.parent[i], []).append(i)
        totals: Dict[str, float] = {}
        for i in range(first, last):
            lo, hi = self.start[i], self.end[i]
            covered = 0.0
            reach = lo
            for c in sorted(children.get(i, ()), key=lambda c: self.start[c]):
                c_lo, c_hi = max(self.start[c], reach), min(self.end[c], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            name = self.names[self.name[i]]
            totals[name] = totals.get(name, 0.0) + (hi - lo) - covered
        return totals

    def replay_time(self, first: int = 0) -> float:
        """Total duration of the replay spans from ``first`` on."""
        return sum(self.end[i] - self.start[i]
                   for i in range(first, len(self)) if self.replay[i])

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart\tend\tparent\tsentence\treplay\n")
            for i in range(len(self)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                          f"{self.end[i]!r}\t{self.parent[i]}\t{self.sentence[i]}\t"
                          f"{self.replay[i]}\n")


class NullTracer:
    """Stands in for ``Tracer`` on the untraced passes."""

    def begin(self, name: str, sentence: int = -1, replay: bool = False) -> int:
        return 0

    def end_(self, span: int) -> None:
        pass


# ------------------------------------------------------------------ drives


def _record(tree: DepTree, result, explain: bool) -> dict:
    """The JSON record ``treesent analyze`` writes for one sentence."""
    record = {
        "sent_id": tree.sentence_id,
        "class": result.sentence_class,
        "valence": result.sentence_valence,
        "opinions": [
            {
                "target": [op.target_token_ids[0], op.target_token_ids[-1]],
                "text": op.target_text,
                "polarity": op.opinion_class,
                "valence": op.valence,
                "evidence": list(op.evidence_token_ids),
            }
            for op in result.opinions
        ],
    }
    if explain:
        record["trace"] = [
            [step.token_id, step.rule, step.before, step.after, step.note]
            for step in result.trace
        ]
    return record


def _read(path: Path, tr, replay: bool, stats: ReadStats) -> Iterable[Tuple[int, DepTree]]:
    """``read_conllu`` with a span per sentence, plus the validation replay."""
    it = iter(read_conllu(path, on_error="abort", stats=stats))
    i = 0
    while True:
        span = tr.begin("conllu.read", i)
        tree = next(it, None)
        tr.end_(span)
        if tree is None:
            return
        if replay:
            span = tr.begin("tree.validate", i, replay=True)
            DepTree(tree.tokens, sentence_id=tree.sentence_id, metadata=tree.metadata)
            tr.end_(span)
        yield i, tree
        i += 1


def drive_analyze(path: Path, explain: bool, workers: int, tr, replay: bool,
                  counts: Dict[str, float]) -> List[bytes]:
    """``treesent analyze``: read every tree into a list, score, then write."""
    span = tr.begin("lexicon.load")
    lex = demo_lexicon("en")
    tr.end_(span)
    cfg = RuleConfig()
    stats = ReadStats()
    stage = tr.begin("drive.read")
    trees = [tree for _, tree in _read(path, tr, replay, stats)]
    tr.end_(stage)

    stage = tr.begin("drive.records")
    pooled = workers > 1 and len(trees) >= 2 * workers
    step = -(-len(trees) // workers) if pooled else max(1, len(trees))
    records: List[dict] = []
    tokens = hits = shifters = fired_steps = found = kept = pool_bytes = 0
    fired: Dict[str, int] = {}
    for lo in range(0, len(trees), step):
        chunk = trees[lo:lo + step]
        if pooled:
            span = tr.begin("cli.pool_pickle")
            blob = ForkingPickler.dumps((chunk, lex, cfg, explain, False, False))
            pickle.loads(blob)
            tr.end_(span)
            pool_bytes += len(blob)
        part = []
        for i, tree in enumerate(chunk, start=lo):
            span = tr.begin("rules.analyze", i)
            result = analyze(tree, lex, cfg)
            tr.end_(span)
            if replay:
                span = tr.begin("rules.score", i, replay=True)
                score_tree(tree, lex, cfg)
                tr.end_(span)
                span = tr.begin("rules.targets", i, replay=True)
                targets = extract_targets(tree)
                tr.end_(span)
                span = tr.begin("lexicon.busy", i, replay=True)
                lemmas = merge_collocations([t.lemma for t in tree.tokens], lex.collocations)
                for token, lemma in zip(tree.tokens, lemmas):
                    if lemma:
                        shifters += lex.classify_shifter(lemma) is not None
                        hits += lex.lookup(lemma, token.upos) is not None
                tr.end_(span)
                tokens += len(tree)
                found += len(targets)
                kept += len(result.opinions)
                fired_steps += len(result.trace)
                for trace_step in result.trace:
                    fired[trace_step.rule] = fired.get(trace_step.rule, 0) + 1
            part.append(_record(tree, result, explain))
        if pooled:
            span = tr.begin("cli.pool_pickle")
            blob = ForkingPickler.dumps(part)
            pickle.loads(blob)
            tr.end_(span)
            pool_bytes += len(blob)
        records.extend(part)
    tr.end_(stage)

    stage = tr.begin("drive.write")
    lines = []
    for i, record in enumerate(records):
        span = tr.begin("cli.serialise", i)
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
        tr.end_(span)
    tr.end_(stage)
    out = "".join(lines).encode("utf-8")

    counts.update({
        "conllu.sentences": stats.sentences,
        "conllu.dropped_ranges": stats.dropped_ranges,
        "cli.bytes_out": len(out),
        "cli.pool_bytes": pool_bytes,
    })
    if replay:
        for rule in ("LEXICON", "INTENSIFY", "NEGATE", "ADVERSATIVE"):
            counts[f"rules.fired.{rule}"] = fired.get(rule, 0)
        counts.update({
            "rules.trace_steps": fired_steps,
            "rules.targets.found": found,
            "rules.targets.kept": kept,
            "rules.targets.kept_ratio": kept / found if found else 0.0,
            "lexicon.hit_rate": hits / tokens if tokens else 0.0,
            "lexicon.shifter_rate": shifters / tokens if tokens else 0.0,
        })
    return [out]


def drive_decode(paths: Sequence[Tuple[str, Path]], tr, replay: bool,
                 counts: Dict[str, float]) -> List[bytes]:
    """``treesent decode`` once per scheme, streaming like the command."""
    outputs: List[bytes] = []
    repairs = None
    tokens = 0
    for scheme, path in paths:
        stage = tr.begin("drive." + scheme)
        parts: List[str] = []
        stats = BridgeStats()
        it = iter(parse_tagger_output(path, Scheme.parse(scheme), on_error="abort", stats=stats))
        i = 0
        while True:
            span = tr.begin(f"encodings.bridge.{scheme}", i)
            item = next(it, None)
            tr.end_(span)
            if item is None:
                break
            labels, result = item
            tree = result.tree
            if replay:
                span = tr.begin(f"encodings.decode.{scheme}", i, replay=True)
                decode(labels, list(zip(tree.forms, tree.upos_tags)), sentence_id=tree.sentence_id)
                tr.end_(span)
            span = tr.begin("tree.validate", i)
            keeper = DepTree(tree.tokens, sentence_id=tree.sentence_id,
                             metadata={"sent_id": tree.sentence_id})
            tr.end_(span)
            span = tr.begin("conllu.write", i)
            parts.append(format_sentence(keeper) + "\n\n")
            tr.end_(span)
            tokens += len(tree)
            i += 1
        tr.end_(stage)
        outputs.append("".join(parts).encode("utf-8"))
        repairs = stats.repairs if repairs is None else repairs + stats.repairs
    counts.update({
        "encodings.repairs.out_of_range": repairs.out_of_range,
        "encodings.repairs.extra_roots": repairs.extra_roots,
        "encodings.repairs.missing_root": repairs.missing_root,
        "encodings.repairs.cycles_broken": repairs.cycles_broken,
        "encodings.repair_rate": repairs.total / tokens if tokens else 0.0,
        "cli.bytes_out": sum(len(out) for out in outputs),
    })
    return outputs


def drive_encode(path: Path, schemes: Sequence[str], tr, replay: bool,
                 counts: Dict[str, float]) -> List[bytes]:
    """``treesent encode`` once per scheme, streaming like the command."""
    outputs: List[bytes] = []
    sentences = dropped = 0
    for scheme_name in schemes:
        scheme = Scheme.parse(scheme_name)
        stage = tr.begin("drive." + scheme_name)
        parts: List[str] = []
        stats = ReadStats()
        for i, tree in _read(path, tr, replay, stats):
            if replay and scheme is Scheme.BRACKETS:
                span = tr.begin("tree.crossing", i, replay=True)
                crossing_arcs(tree)
                tr.end_(span)
            span = tr.begin(f"encodings.encode.{scheme_name}", i)
            labels = encode(tree, scheme)
            tr.end_(span)
            span = tr.begin(f"encodings.format.{scheme_name}", i)
            parts.append(format_tagger_line(tree, labels) + "\n")
            tr.end_(span)
        tr.end_(stage)
        outputs.append("".join(parts).encode("utf-8"))
        sentences += stats.sentences
        dropped += stats.dropped_ranges
    counts.update({
        "conllu.sentences": sentences,
        "conllu.dropped_ranges": dropped,
        "cli.bytes_out": sum(len(out) for out in outputs),
    })
    return outputs
