"""Streaming CoNLL-U reader and writer.

Only the columns the pipeline uses are retained: ID, FORM, LEMMA, UPOS,
HEAD, DEPREL, plus ``#`` comment metadata. The remaining columns are
written back as underscores. Multiword token ranges (``1-2``) and empty
nodes (``1.1``) are dropped silently, with a tally kept in ``ReadStats``.
"""

from __future__ import annotations

import os
import re
from collections import Counter

from .tree import DataError, DepTree, TreeError, _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import IO, Callable, Iterable, Iterator, List, Optional, Tuple, Union

    Line = Union[str, bytes]
    Source = Union[str, os.PathLike, IO[bytes], IO[str], Iterable[Line]]
    # one sentence as ``split_blocks`` yields it: (ordinal, [(lineno, line), ...])
    Block = Tuple[int, List[Tuple[int, Line]]]

_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_ID = re.compile(r"^\d+\.\d+$")
_COLUMNS = 10
# the reason ``parse_blocks`` skips a sentence, in the words that report it
UNREADABLE = "unreadable sentences"


class ConlluError(DataError):
    """A sentence that cannot be read, with its ordinal and line number."""

    def __init__(self, message: str, sentence: int, line: int):
        super().__init__(f"sentence {sentence} (line {line}): {message}")
        self.message = message
        self.sentence = sentence
        self.line = line

    def __reduce__(self):
        return type(self), (self.message, self.sentence, self.line)


class ReadStats(_Record):
    """Tallies filled in by ``read_conllu``, or a command's run, as it goes."""

    _fields = ("sentences", "skipped", "dropped_ranges", "dropped_empty_nodes", "skipped_by")

    def __init__(self, sentences: int = 0, skipped: int = 0, dropped_ranges: int = 0,
                 dropped_empty_nodes: int = 0, skipped_by: Counter | None = None) -> None:
        self.sentences = sentences
        self.skipped = skipped
        self.dropped_ranges = dropped_ranges
        self.dropped_empty_nodes = dropped_empty_nodes
        # ``skipped`` split by reason: UNREADABLE, or a command's own reasons
        self.skipped_by = Counter() if skipped_by is None else skipped_by

    def skip(self, reason: str) -> None:
        self.skipped += 1
        self.skipped_by[reason] += 1

    def add(self, other: "ReadStats") -> None:
        """Fold in the tallies of another read, such as one chunk's."""
        for name in self._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def iter_raw_lines(source: Source) -> Iterator[Line]:
    """Lines as the source holds them: bytes from paths and byte streams."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from fh
        return
    yield from source


def decode_line(raw: Line) -> Optional[str]:
    """``raw`` as text, or None for bytes that are not valid UTF-8."""
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return None


def numbered_lines(source: Source) -> Iterator[Tuple[int, Optional[str]]]:
    """``(lineno, text)`` per line of a path, stream or line iterable.

    Line numbers count from 1. ``text`` is None for a line that is not
    valid UTF-8, so that each reader can report it in its own terms.
    """
    return enumerate(map(decode_line, iter_raw_lines(source)), start=1)


def settings_lines(
    source: Source, error: Callable[[str, int], Exception]
) -> Iterator[Tuple[int, str, str]]:
    """``(lineno, key, value)`` per setting of a ``key = value`` file, one at
    a time, so that a caller checking each as it comes reports the first bad
    line. Blank lines and ``#`` comments are skipped. A line that is not valid
    UTF-8, has no ``=`` or key, or repeats a key raises ``error(message, lineno)``.
    """
    seen = set()
    for lineno, text in numbered_lines(source):
        if text is None:
            raise error("not valid UTF-8", lineno)
        line = text.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise error(f"expected 'key = value', got {line!r}", lineno)
        if key in seen:
            raise error(f"duplicate key {key!r}", lineno)
        seen.add(key)
        yield lineno, key, value


def split_blocks(lines: Iterable[Line]) -> Iterator[Block]:
    """Group lines into sentence blocks, ``(ordinal, [(lineno, line), ...])``.

    Blank lines end a block; ordinals and line numbers count from 1. Line
    ends are stripped. A line that is not valid UTF-8 stays ``bytes``, so
    the sentence holding it fails when its block is parsed.
    """
    block: List[Tuple[int, Line]] = []
    ordinal = 0
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                block.append((lineno, raw))
                continue
        line = raw.rstrip("\n").rstrip("\r")
        if line and not line.isspace():
            block.append((lineno, line))
        elif block:
            ordinal += 1
            yield ordinal, block
            block = []
    if block:
        yield ordinal + 1, block


def _parse_block(
    lines: List[Tuple[int, Line]], ordinal: int, stats: ReadStats
) -> DepTree:
    metadata: dict = {}
    rows: List[List[str]] = []
    heads: List[int] = []
    first_line = lines[0][0]
    for lineno, text in lines:
        if isinstance(text, bytes):
            raise ConlluError("not valid UTF-8", ordinal, lineno)
        if text.startswith("#"):
            body = text[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            elif body:
                metadata[body] = None
            continue
        cols = text.split("\t")
        if len(cols) != _COLUMNS:
            raise ConlluError(
                f"expected {_COLUMNS} columns, got {len(cols)}", ordinal, lineno
            )
        raw_id = cols[0]
        if not raw_id.isdecimal():
            if _RANGE_ID.match(raw_id):
                stats.dropped_ranges += 1
                continue
            if _EMPTY_ID.match(raw_id):
                stats.dropped_empty_nodes += 1
                continue
            try:
                int(raw_id)
            except ValueError:
                raise ConlluError(f"non-numeric id {raw_id!r}", ordinal, lineno) from None
        try:
            heads.append(int(cols[6]))
        except ValueError:
            raise ConlluError(f"non-numeric head {cols[6]!r}", ordinal, lineno) from None
        rows.append(cols)
    sent_id = metadata.get("sent_id") or f"s{ordinal}"
    # ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC
    ids, forms, lemmas, upos, _, _, _, deprels, _, _ = zip(*rows) if rows else ((),) * _COLUMNS
    try:
        return DepTree._from_columns(
            tuple(map(int, ids)), forms, lemmas, upos, tuple(heads), deprels,
            sentence_id=sent_id, metadata=metadata,
        )
    except TreeError as exc:
        raise ConlluError(str(exc), ordinal, first_line) from None


def parse_blocks(
    blocks: Iterable[Block],
    on_error: str = "skip",
    stats: ReadStats | None = None,
) -> Iterator[DepTree]:
    """Yield one validated ``DepTree`` per block from ``split_blocks``.

    ``on_error`` is ``"skip"`` (drop bad sentences, count them in
    ``stats.skipped``) or ``"abort"`` (raise ``ConlluError``).
    """
    if on_error not in ("skip", "abort"):
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    if stats is None:
        stats = ReadStats()
    for ordinal, lines in blocks:
        try:
            tree = _parse_block(lines, ordinal, stats)
        except ConlluError:
            if on_error == "abort":
                raise
            stats.skip(UNREADABLE)
            continue
        stats.sentences += 1
        yield tree


def read_conllu(
    source: Source,
    on_error: str = "skip",
    stats: ReadStats | None = None,
) -> Iterator[DepTree]:
    """Yield one validated ``DepTree`` per sentence block.

    ``on_error`` and ``stats`` work as in ``parse_blocks``. Input is
    consumed line by line, whole files are never buffered.
    """
    return parse_blocks(split_blocks(iter_raw_lines(source)), on_error, stats)


def format_sentence(tree: DepTree) -> str:
    """Serialize one tree to a CoNLL-U block (no trailing blank line)."""
    out = []
    for key, value in tree.metadata.items():
        out.append(f"# {key}" if value is None else f"# {key} = {value}")
    for i, form, lemma, upos, head, deprel in zip(
        range(1, len(tree) + 1), tree.forms, tree.lemmas, tree.upos, tree.heads, tree.deprels
    ):
        out.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_")
    return "\n".join(out)


def dumps_conllu(trees: Iterable[DepTree]) -> str:
    """All sentences as one CoNLL-U string, deterministic for equal input."""
    return "".join(format_sentence(t) + "\n\n" for t in trees)


def write_conllu(trees: Iterable[DepTree], dest: str | os.PathLike | IO[str]) -> None:
    """Stream sentences to a path or text file object."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            return write_conllu(trees, fh)
    for tree in trees:
        dest.write(format_sentence(tree) + "\n\n")
