"""Output checks, run apart from the timing.

Each check returns the number of input sentences whose output failed. A
sentence fails if its record is missing, is not strict JSON (``NaN`` and
``Infinity`` are rejected), comes out of input order, is repeated, or is
wrong. An output line that belongs to no sentence counts as one failure.
The checks of the output itself:

* ``analyze``: an ``--explain`` trace must replay to the record's valence
  exactly (``replay_trace(trace) == valence``).
* ``decode``: the output must read back through ``read_conllu``, and every
  sentence with no corrupted label must decode to its gold tree
  (``eval_parse`` UAS of 1.0).
* ``encode``: every bridge line must decode back, with no repair, to the
  tree it was encoded from.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from treesent import DepTree, Scheme, eval_parse, parse_tagger_output, read_conllu
from treesent.conllu import ReadStats
from treesent.rules import CLASSES, TraceStep, replay_trace


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-JSON constant {name}")


def strict_json(line: str) -> object:
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(line, parse_constant=_reject_constant)


def count_failed(expected: Sequence[str], got: Sequence[Tuple[Optional[str], bool]]) -> int:
    """Sentences of ``expected`` without exactly one good record in the right
    place, plus the output entries that belong to no sentence; at most
    ``len(expected)``.

    ``got`` lists the output entries in order as ``(sent_id, ok)``; an entry
    that could not be parsed has ``sent_id`` None. A record that appears
    before its turn is taken as the record of a missing sentence further
    on. An entry passed over while looking for a sentence's record fails
    the sentence it names: that record is a duplicate or out of order. One
    that names no expected sentence is taken as the broken record of the
    sentence being looked for, if that one has none, and otherwise counts
    as a failure of its own, like every such entry after the last record.
    """
    position = {sid: i for i, sid in enumerate(expected)}
    failed: Set[int] = set()
    stray = 0

    def pass_over(entry: Tuple[Optional[str], bool]) -> bool:
        """Fail the sentence ``entry`` names; False if it names none."""
        if entry[0] in position:
            failed.add(position[entry[0]])
            return True
        return False

    j = 0
    for i, sid in enumerate(expected):
        unnamed = 0
        while j < len(got):
            got_id = got[j][0]
            if got_id == sid or (got_id in position and position[got_id] > i):
                break
            unnamed += not pass_over(got[j])
            j += 1
        if j < len(got) and got[j][0] == sid:
            if not got[j][1]:
                failed.add(i)
            j += 1
        else:
            failed.add(i)
            unnamed = max(0, unnamed - 1)
        stray += unnamed
    stray += sum(not pass_over(entry) for entry in got[j:])
    return min(len(expected), len(failed) + stray)


def _record_ok(record: object, explain: bool) -> bool:
    if not isinstance(record, dict) or record.get("class") not in CLASSES:
        return False
    valence = record.get("valence")
    if not isinstance(valence, (int, float)) or not math.isfinite(valence):
        return False
    if explain:
        trace = record.get("trace")
        if not isinstance(trace, list):
            return False
        try:
            return replay_trace([TraceStep(*step) for step in trace]) == valence
        except (TypeError, ValueError):
            return False
    return True


def check_analyze(output: bytes, expected: Sequence[str], explain: bool) -> int:
    got: List[Tuple[Optional[str], bool]] = []
    for line in output.decode("utf-8", errors="replace").splitlines():
        try:
            record = strict_json(line)
        except ValueError:
            got.append((None, False))
            continue
        sid = record.get("sent_id") if isinstance(record, dict) else None
        got.append((sid if isinstance(sid, str) else None, _record_ok(record, explain)))
    return count_failed(expected, got)


def read_decoded(output: bytes, expected: Sequence[str], gold: Sequence[Tuple[int, ...]]
                 ) -> List[Tuple[Optional[DepTree], Optional[DepTree]]]:
    """The blocks of a ``decode`` output in order, each as its tree and its
    gold tree, joined by ``sent_id``. The tree is None for a block that does
    not read back; the gold tree is None where there is no tree, the id is
    not expected or the lengths differ."""
    gold_by_id = dict(zip(expected, gold))
    stats = ReadStats()
    pairs: List[Tuple[Optional[DepTree], Optional[DepTree]]] = []
    unread = 0

    def add_unread() -> None:
        # read_conllu counts a bad block before it yields the next tree
        nonlocal unread
        pairs.extend([(None, None)] * (stats.skipped - unread))
        unread = stats.skipped

    for tree in read_conllu(output.decode("utf-8", errors="replace").splitlines(),
                            on_error="skip", stats=stats):
        add_unread()
        heads = gold_by_id.get(tree.sentence_id)
        ok = heads is not None and len(heads) == len(tree)
        pairs.append((tree, DepTree.build(heads, sentence_id=tree.sentence_id) if ok else None))
    add_unread()
    return pairs


def check_decode(output: bytes, expected: Sequence[str], gold: Sequence[Tuple[int, ...]],
                 corrupted: Set[str]) -> int:
    got: List[Tuple[Optional[str], bool]] = []
    for tree, gold_tree in read_decoded(output, expected, gold):
        if tree is None:
            got.append((None, False))
            continue
        sid = tree.sentence_id
        ok = gold_tree is not None and (
            sid in corrupted or eval_parse([tree], [gold_tree]).uas == 1.0)
        got.append((sid, ok))
    return count_failed(expected, got)


def check_encode(output: bytes, expected: Sequence[str], gold: Sequence[Tuple[int, ...]],
                 scheme: str) -> int:
    gold_by_id = dict(zip(expected, gold))
    got = []
    for line in output.decode("utf-8", errors="replace").splitlines():
        try:
            [(_labels, result)] = parse_tagger_output([line], Scheme.parse(scheme),
                                                      on_error="abort")
        except ValueError:
            got.append((None, False))
            continue
        sid = result.tree.sentence_id
        ok = result.repairs.total == 0 and result.tree.heads == gold_by_id.get(sid)
        got.append((sid, ok))
    return count_failed(expected, got)


def checker_for(workload, command) -> Callable[[bytes], int]:
    """The check of one command's output, as a function of the bytes."""
    expected = workload.sent_ids[command.name]
    if command.kind == "jsonl":
        return lambda out: check_analyze(out, expected, command.explain)
    gold = workload.gold_heads[command.name]
    if command.kind == "conllu":
        corrupted = workload.corrupted[command.name]
        return lambda out: check_decode(out, expected, gold, corrupted)
    return lambda out: check_encode(out, expected, gold, command.scheme)


class CachedCheck:
    """Runs a check once per distinct output; equal bytes give equal results."""

    def __init__(self, check: Callable[[bytes], int]):
        self.check = check
        self.results: Dict[str, int] = {}

    def __call__(self, digest: str, output: bytes) -> int:
        if digest not in self.results:
            self.results[digest] = self.check(output)
        return self.results[digest]
