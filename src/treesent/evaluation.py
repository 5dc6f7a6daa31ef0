"""Gold-data ingestion and metrics.

Gold files are JSON lines, one sentence per record: tokens with half-open
character offsets, an optional sentence polarity, optional opinions whose
spans are character ranges, and an optional gold parse. Character spans are
resolved against the record's own token offsets, rounding outward so any
partially covered token joins the span.

Metrics cover sentence classification (accuracy, per-class P/R/F1, macro
F1 over the three fixed classes), target extraction (exact and overlap
span matching with greedy one-to-one alignment), and parsing (UAS/LAS).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .conllu import numbered_lines
from .opinions import Opinion, OpinionError, OpinionSet, to_tree
from .rules import CLASSES
from .tree import DataError, DepTree, TreeError

if TYPE_CHECKING:
    from .conllu import Source


class EvalError(DataError):
    """Bad gold data or an impossible metric request."""


@dataclass(frozen=True)
class GoldRecord:
    """One annotated sentence; at least one annotation layer is present."""

    sentence_id: str
    text: str
    forms: Tuple[str, ...]
    upos: Tuple[str, ...]
    offsets: Tuple[Tuple[int, int], ...]
    gold_class: Optional[str] = None
    gold_opinions: Optional[OpinionSet] = None
    parse: Optional[DepTree] = None


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class SentenceMetrics:
    accuracy: float
    per_class: Mapping[str, ClassMetrics]
    macro_f1: float


class TargetMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    matches: int
    predicted: int
    gold: int


class ParseMetrics(NamedTuple):
    uas: float
    las: float
    tokens: int


@dataclass(frozen=True)
class MetricsReport:
    """Everything one evaluation run produced, JSON-ready via to_dict."""

    sentences: int = 0
    opinions: int = 0
    conversion_coverage: float = 1.0
    sentence: Optional[SentenceMetrics] = None
    targets_exact: Optional[TargetMetrics] = None
    targets_overlap: Optional[TargetMetrics] = None
    parse: Optional[ParseMetrics] = None

    def to_dict(self) -> dict:
        out: dict = {
            "sentences": self.sentences,
            "opinions": self.opinions,
            "conversion_coverage": self.conversion_coverage,
        }
        if self.sentence is not None:
            out["sentence"] = {
                "accuracy": self.sentence.accuracy,
                "macro_f1": self.sentence.macro_f1,
                "per_class": {
                    label: dict(metrics._asdict())
                    for label, metrics in self.sentence.per_class.items()
                },
            }
        targets = {}
        if self.targets_exact is not None:
            targets["exact"] = dict(self.targets_exact._asdict())
        if self.targets_overlap is not None:
            targets["overlap"] = dict(self.targets_overlap._asdict())
        if targets:
            out["targets"] = targets
        if self.parse is not None:
            out["parse"] = dict(self.parse._asdict())
        return out


def _is_int(value) -> bool:
    """A JSON integer: not a float, a numeric string or a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_pair(span) -> Optional[Tuple[int, int]]:
    """``span`` as two integers, or None if it is anything else."""
    if isinstance(span, (list, tuple)) and len(span) == 2 and all(map(_is_int, span)):
        return span[0], span[1]
    return None


def char_span_to_token_span(
    offsets: Sequence[Tuple[int, int]], span: Tuple[int, int]
) -> Tuple[int, int]:
    """Half-open character span -> inclusive 1-based token span.

    Rounds outward: any token sharing at least one character is included.
    """
    pair = _int_pair(span)
    if pair is None:
        raise EvalError("spans must be pairs of integers")
    start, end = pair
    if start >= end:
        raise EvalError(f"empty character span ({start}, {end})")
    hit = [
        index
        for index, (tok_start, tok_end) in enumerate(offsets, start=1)
        if tok_start < end and tok_end > start
    ]
    if not hit:
        raise EvalError(f"character span ({start}, {end}) covers no token")
    return (hit[0], hit[-1])


def _record_error(sentence_id: str, lineno: int, message: str) -> EvalError:
    where = f"line {lineno}: record {sentence_id}" if sentence_id else f"line {lineno}"
    return EvalError(f"{where}: {message}")


def _objects(value) -> bool:
    """True for a JSON array of JSON objects."""
    return isinstance(value, list) and all(isinstance(item, dict) for item in value)


def _parse_record(raw: dict, lineno: int) -> GoldRecord:
    sentence_id = str(raw.get("sent_id", ""))
    if not sentence_id:
        raise _record_error("", lineno, "missing sent_id")
    token_rows = raw.get("tokens")
    if not token_rows:
        raise _record_error(sentence_id, lineno, "missing tokens")
    if not _objects(token_rows):
        raise _record_error(sentence_id, lineno, "tokens must be a list of JSON objects")
    text = str(raw.get("text", ""))
    forms, upos, offsets = [], [], []
    previous_start = -1
    for row in token_rows:
        start, end = row.get("start"), row.get("end")
        if "form" not in row or "upos" not in row or not (_is_int(start) and _is_int(end)):
            raise _record_error(sentence_id, lineno, f"bad token row {row!r}")
        form, tag = str(row["form"]), str(row["upos"])
        if start < 0 or end <= start or start < previous_start:
            raise _record_error(
                sentence_id, lineno, f"bad offsets ({start}, {end}) for {form!r}"
            )
        previous_start = start
        forms.append(form)
        upos.append(tag)
        offsets.append((start, end))

    gold_class = raw.get("class")
    if gold_class is not None:
        gold_class = str(gold_class)
        if gold_class not in CLASSES:
            raise _record_error(sentence_id, lineno, f"unknown class {gold_class!r}")

    gold_opinions = None
    if "opinions" in raw:
        if not _objects(raw["opinions"]):
            raise _record_error(sentence_id, lineno, "opinions must be a list of JSON objects")
        opinions = []
        for position, item in enumerate(raw["opinions"]):
            if "expression" not in item:
                raise _record_error(
                    sentence_id, lineno, f"opinion {position} missing expression"
                )
            try:
                expression = char_span_to_token_span(offsets, item["expression"])
                target = (
                    char_span_to_token_span(offsets, item["target"])
                    if item.get("target") is not None
                    else None
                )
                holder = (
                    char_span_to_token_span(offsets, item["holder"])
                    if item.get("holder") is not None
                    else None
                )
                opinions.append(
                    Opinion(
                        expression,
                        str(item.get("polarity", "")),
                        target_span=target,
                        holder_span=holder,
                    )
                )
            except (EvalError, OpinionError) as exc:
                raise _record_error(
                    sentence_id, lineno, f"opinion {position}: {exc}"
                ) from None
        gold_opinions = OpinionSet(
            tuple(forms), tuple(upos), tuple(opinions), sentence_id=sentence_id
        )

    if gold_class is None and gold_opinions is None:
        raise _record_error(sentence_id, lineno, "needs a class or an opinions list")

    parse = None
    if "parse" in raw and raw["parse"] is not None:
        block = raw["parse"]
        if not isinstance(block, dict):
            raise _record_error(sentence_id, lineno, "parse must be a JSON object")
        heads = block.get("heads")
        deprels = block.get("deprels")
        if (
            not isinstance(heads, list)
            or not isinstance(deprels, list)
            or len(heads) != len(forms)
            or len(deprels) != len(forms)
        ):
            raise _record_error(sentence_id, lineno, "parse arrays do not match tokens")
        if not all(map(_is_int, heads)):
            raise _record_error(sentence_id, lineno, "parse heads must be integers")
        try:
            parse = DepTree.build(
                heads,
                deprels=[str(d) for d in deprels],
                forms=forms,
                upos=upos,
                sentence_id=sentence_id,
            )
        except TreeError as exc:
            raise _record_error(sentence_id, lineno, f"bad parse: {exc}") from None

    return GoldRecord(
        sentence_id,
        text,
        tuple(forms),
        tuple(upos),
        tuple(offsets),
        gold_class=gold_class,
        gold_opinions=gold_opinions,
        parse=parse,
    )


def load_gold(source: Source) -> Iterator[GoldRecord]:
    """Stream GoldRecords out of a JSON-lines file."""
    for lineno, raw_line in numbered_lines(source):
        if raw_line is None:
            raise EvalError(f"line {lineno}: not valid UTF-8")
        line = raw_line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EvalError(f"line {lineno}: bad JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise EvalError(f"line {lineno}: record must be a JSON object")
        yield _parse_record(raw, lineno)


def load_predictions(path: Path) -> Dict[str, dict]:
    """Predictions by sentence id, from analyze/aspects output or a gold-format file.

    Each entry holds the predicted ``class`` and the ``(target span, polarity)``
    ``items``.
    """
    lines = []
    for lineno, raw in numbered_lines(path):
        if raw is None:
            raise EvalError(f"{path}:{lineno}: not valid UTF-8")
        lines.append(raw)
    first = next((raw for raw in lines if raw.strip()), None)
    table: Dict[str, dict] = {}
    if first is None:
        return table
    try:
        first_record = json.loads(first)
    except json.JSONDecodeError as exc:
        raise EvalError(f"{path}: bad JSON on first record: {exc}") from None
    if isinstance(first_record, dict) and "tokens" in first_record:
        for record in load_gold(lines):
            opinions, sid = record.gold_opinions, record.sentence_id
            table[sid] = {
                "class": record.gold_class,
                "items": [] if opinions is None else _target_items(opinions, sid),
            }
        return table
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EvalError(f"{where}: bad JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise EvalError(f"{where}: prediction record must be a JSON object")
        sid = str(obj.get("sent_id", ""))
        if not sid:
            raise EvalError(f"{where}: prediction record missing sent_id")
        if sid in table:
            raise EvalError(f"{where}: duplicate prediction for {sid!r}")
        entry: dict = {"class": None, "items": []}
        if obj.get("class") is not None:
            entry["class"] = str(obj["class"])
        if "opinions" in obj:
            opinions = obj["opinions"]
            if not _objects(opinions):
                raise EvalError(f"{where}: opinions must be a list of JSON objects")
            for op in opinions:
                span = op.get("target")
                if span is None:
                    continue
                pair = _int_pair(span)
                if pair is None:
                    raise EvalError(f"{where}: target must be a pair of integers, got {span!r}")
                entry["items"].append((pair, str(op.get("polarity"))))
        table[sid] = entry
    return table


def _prf(true_positives: int, predicted: int, gold: int) -> Tuple[float, float, float]:
    precision = true_positives / predicted if predicted else 0.0
    recall = true_positives / gold if gold else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def eval_sentences(pred: Sequence[str], gold: Sequence[str]) -> SentenceMetrics:
    """Accuracy plus per-class P/R/F1 and macro F1 over the fixed classes."""
    if len(pred) != len(gold):
        raise EvalError(f"{len(pred)} predictions vs {len(gold)} gold labels")
    if not gold:
        raise EvalError("nothing to evaluate")
    for label in (*pred, *gold):
        if label not in CLASSES:
            raise EvalError(f"unknown class label {label!r}")
    correct = sum(1 for p, g in zip(pred, gold) if p == g)
    per_class = {}
    for label in CLASSES:
        true_positives = sum(1 for p, g in zip(pred, gold) if p == g == label)
        predicted = sum(1 for p in pred if p == label)
        gold_count = sum(1 for g in gold if g == label)
        per_class[label] = ClassMetrics(*_prf(true_positives, predicted, gold_count))
    macro = sum(m.f1 for m in per_class.values()) / len(CLASSES)
    return SentenceMetrics(correct / len(gold), per_class, macro)


TargetItems = Union[OpinionSet, Iterable[Tuple[Tuple[int, int], str]]]


def _target_items(payload: TargetItems, sid: str) -> List[Tuple[Tuple[int, int], str]]:
    if isinstance(payload, OpinionSet):
        items = [
            (op.target_span, op.polarity)
            for op in payload.opinions
            if op.target_span is not None
        ]
    else:
        items = []
        for span, polarity in payload:
            pair = _int_pair(span)
            if pair is None:
                raise EvalError(
                    f"sentence {sid!r}: target must be a pair of integers, got {span!r}"
                )
            items.append((pair, polarity))
    return sorted(items, key=lambda item: item[0])


def _by_sentence(side: Union[Mapping[str, TargetItems], Iterable[OpinionSet]], name: str):
    if isinstance(side, Mapping):
        return {sid: _target_items(payload, sid) for sid, payload in side.items()}
    table: Dict[str, List[Tuple[Tuple[int, int], str]]] = {}
    for opinion_set in side:
        sid = opinion_set.sentence_id
        if sid in table:
            raise EvalError(f"duplicate {name} sentence_id {sid!r}")
        table[sid] = _target_items(opinion_set, sid)
    return table


def eval_targets(
    pred: Union[Mapping[str, TargetItems], Iterable[OpinionSet]],
    gold: Union[Mapping[str, TargetItems], Iterable[OpinionSet]],
    mode: str = "exact",
) -> TargetMetrics:
    """Corpus P/R/F1 over (target span, polarity) pairs.

    A prediction matches a gold item iff the polarities are equal and the
    spans are identical (exact) or share a token (overlap). Matching is
    greedy left to right and one-to-one, with an exact pass run first in
    overlap mode so loosening the criterion never lowers a score.
    """
    if mode not in ("exact", "overlap"):
        raise EvalError(f"unknown match mode {mode!r}")
    pred_table = _by_sentence(pred, "prediction")
    gold_table = _by_sentence(gold, "gold")
    unknown = set(pred_table) - set(gold_table)
    if unknown:
        raise EvalError(f"unknown sentence_id {sorted(unknown)[0]!r} in predictions")
    matches = predicted_total = gold_total = 0
    for sid, gold_items in gold_table.items():
        pred_items = pred_table.get(sid, [])
        predicted_total += len(pred_items)
        gold_total += len(gold_items)
        pred_done = [False] * len(pred_items)
        gold_done = [False] * len(gold_items)
        passes = ("exact",) if mode == "exact" else ("exact", "overlap")
        for criterion in passes:
            for p_index, (p_span, p_polarity) in enumerate(pred_items):
                if pred_done[p_index]:
                    continue
                for g_index, (g_span, g_polarity) in enumerate(gold_items):
                    if gold_done[g_index] or p_polarity != g_polarity:
                        continue
                    if criterion == "exact":
                        hit = p_span == g_span
                    else:
                        hit = p_span[0] <= g_span[1] and g_span[0] <= p_span[1]
                    if hit:
                        pred_done[p_index] = gold_done[g_index] = True
                        matches += 1
                        break
    precision, recall, f1 = _prf(matches, predicted_total, gold_total)
    return TargetMetrics(precision, recall, f1, matches, predicted_total, gold_total)


def eval_parse(pred: Iterable[DepTree], gold: Iterable[DepTree]) -> ParseMetrics:
    """Micro-averaged unlabeled and labeled attachment scores."""
    pred_list, gold_list = list(pred), list(gold)
    if len(pred_list) != len(gold_list):
        raise EvalError(f"{len(pred_list)} predicted trees vs {len(gold_list)} gold")
    if not gold_list:
        raise EvalError("nothing to evaluate")
    tokens = head_hits = label_hits = 0
    for pred_tree, gold_tree in zip(pred_list, gold_list):
        if len(pred_tree) != len(gold_tree):
            raise EvalError(
                f"token count mismatch: {len(pred_tree)} vs {len(gold_tree)} "
                f"in {gold_tree.sentence_id or 'unnamed sentence'}"
            )
        for p_head, g_head, p_rel, g_rel in zip(
            pred_tree.heads, gold_tree.heads, pred_tree.deprels, gold_tree.deprels
        ):
            tokens += 1
            if p_head == g_head:
                head_hits += 1
                if p_rel == g_rel:
                    label_hits += 1
    return ParseMetrics(head_hits / tokens, label_hits / tokens, tokens)


def conversion_coverage(opinion_sets: Iterable[OpinionSet]) -> float:
    """Fraction of OpinionSets representable as trees (no span overlap)."""
    total = convertible = 0
    for opinion_set in opinion_sets:
        total += 1
        try:
            to_tree(opinion_set)
            convertible += 1
        except OpinionError:
            pass
    return convertible / total if total else 1.0
