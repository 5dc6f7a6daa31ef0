"""Streaming CoNLL-U reader and writer.

Only the columns the pipeline uses are retained: ID, FORM, LEMMA, UPOS,
HEAD, DEPREL, plus ``#`` comment metadata. The remaining columns are
written back as underscores. Multiword token ranges (``1-2``) and empty
nodes (``1.1``) are dropped silently, with a tally kept in ``ReadStats``.

Paths and byte streams are read a chunk of about ``CHUNK_BYTES`` at a time,
cut just past a blank line, so that a chunk holds whole sentences and can be
split and parsed on its own, in this process or in a pool worker.
"""

from __future__ import annotations

import io
import os
import re
from collections import Counter
from itertools import chain, islice

from .tree import DataError, DepTree, TreeError, _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import IO, Callable, Iterable, Iterator, List, Optional, Tuple, Union

    Line = Union[str, bytes]
    Source = Union[str, os.PathLike, IO[bytes], IO[str], Iterable[Line]]
    # one sentence as ``split_blocks`` yields it: (ordinal, first_line, [line, ...])
    Block = Tuple[int, int, List[Line]]
    # whole lines of a byte input as ``read_chunks`` yields them:
    # (ordinal of its first sentence, number of its first line, bytes)
    Chunk = Tuple[int, int, bytes]

_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_ID = re.compile(r"^\d+\.\d+$")
_COLUMNS = 10
# a line of whitespace, which ends a block like an empty line, once the text
# searched starts and ends with a newline
_SPACE_LINE = re.compile(r"\n[^\S\n]+\n")
# a newline and the empty or ASCII whitespace line after it, up to that line's
# own newline: a chunk can be cut just past it
_BLANK_LINE = re.compile(rb"\n[ \t\r\f\v]*(?=\n)")
# how many bytes before each read are searched too, for a blank line that
# straddles two reads; a longer one is not cut at, so its chunk runs on
_BLANK_REACH = 16
# bytes read from a path or byte stream at a time, before a chunk is cut
CHUNK_BYTES = 1 << 16
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


class _Skip(Exception):
    """``(message, reason)``: a valid tree has no result; ``reason`` is its tally."""


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
    valid UTF-8, so that each reader can report it in its own terms. One
    byte order mark that starts the first line is dropped.
    """
    texts = map(decode_line, iter_raw_lines(source))
    first = (text and text.removeprefix("\ufeff") for text in islice(texts, 1))
    return enumerate(chain(first, texts), start=1)


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
    """Group lines into sentence blocks, ``(ordinal, first_line, [line, ...])``.

    Blank and whitespace-only lines end a block and every other line joins
    it, so a block's lines are consecutive and ``first_line`` numbers them
    all. Ordinals and line numbers count from 1. Line ends are stripped. A
    line that is not valid UTF-8 stays ``bytes``, so the sentence holding
    it fails when its block is parsed.
    """
    block: List[Line] = []
    ordinal = lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                block.append(raw)
                continue
        line = raw.rstrip("\n").rstrip("\r")
        if line and not line.isspace():
            block.append(line)
        elif block:
            ordinal += 1
            yield ordinal, lineno - len(block), block
            block = []
    if block:
        yield ordinal + 1, lineno + 1 - len(block), block


def _in_bytes(source: Source) -> bool:
    return isinstance(source, (str, os.PathLike, io.BufferedIOBase, io.RawIOBase))


def _cuts(source: Source) -> Iterator[bytes]:
    """A path or byte stream in runs of whole lines, each cut just past its
    last blank line (empty, or of ASCII whitespace) once about
    ``CHUNK_BYTES`` more bytes were read."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from _cuts(fh)
        return
    read = getattr(source, "read1", source.read)  # what a pipe holds, not a full size
    pending = bytearray()
    while True:
        data = read(CHUNK_BYTES)
        if not data:
            break
        start = max(len(pending) - _BLANK_REACH, 0)
        pending += data
        cut = 0
        for match in _BLANK_LINE.finditer(pending, start):
            cut = match.end() + 1
        if cut:
            yield bytes(pending[:cut])
            del pending[:cut]
    if pending:
        yield bytes(pending)


def read_chunks(source: Source) -> Optional[Iterator[Chunk]]:
    """The input as ``(first_ordinal, first_line, bytes)`` chunks of whole
    sentences, about ``CHUNK_BYTES`` bytes each, for a path or a byte
    stream; None for a text stream or a line iterable.

    Each chunk carries the ordinal and line number that its first sentence
    and line have in the whole input, which ``chunk_blocks`` continues
    from, so a chunk can be split and parsed on its own.
    """
    return (chunk for chunk, _ in _split_chunks(source)) if _in_bytes(source) else None


def iter_blocks(source: Source) -> Iterator[Block]:
    """``split_blocks`` of any source, a chunk at a time from a path or byte stream."""
    if not _in_bytes(source):
        return split_blocks(iter_raw_lines(source))
    return chain.from_iterable(blocks for _, blocks in _split_chunks(source))


def _split_chunks(source: Source) -> Iterator[Tuple[Chunk, List[Block]]]:
    """Each chunk with its blocks, whose count numbers the next chunk."""
    ordinal = lineno = 1
    for data in _cuts(source):
        chunk = (ordinal, lineno, data)
        blocks = list(chunk_blocks(chunk))
        yield chunk, blocks
        ordinal += len(blocks)
        lineno += data.count(b"\n")


def chunk_blocks(chunk: Chunk) -> Iterator[Block]:
    """The blocks of one chunk from ``read_chunks``, as ``split_blocks``
    yields them from the whole input.

    The chunk is decoded once and split on empty lines. A chunk that is not
    valid UTF-8, or holds a ``\\r`` or a whitespace-only line, goes through
    ``split_blocks`` line by line instead.
    """
    ordinal, lineno, data = chunk
    try:
        text: Optional[str] = data.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None or "\r" in text or _SPACE_LINE.search(f"\n{text}\n"):
        for number, first_line, lines in split_blocks(io.BytesIO(data)):
            yield ordinal + number - 1, lineno + first_line - 1, lines
        return
    for piece in text.split("\n\n"):
        body = piece.lstrip("\n")  # the empty lines past the first
        if body:
            lines = body.split("\n")
            if not lines[-1]:  # the newline that ends the input
                lines.pop()
            yield ordinal, lineno + len(piece) - len(body), lines
            ordinal += 1
        lineno += piece.count("\n") + 2


def _parse_block(lines: List[Line], first_line: int, ordinal: int, stats: ReadStats,
                 by_row: bool = False) -> DepTree:
    metadata: dict = {}
    rows: List[List[str]] = []
    message = None  # what is wrong with ``text``, the row that ends the loop early
    counted = stats.dropped_ranges, stats.dropped_empty_nodes
    for text in lines:
        if isinstance(text, bytes):
            message = "not valid UTF-8"
            break
        if text[:1] == "#":
            body = text[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            elif body:
                metadata[body] = None
            continue
        cols = text.split("\t")
        if len(cols) != _COLUMNS:
            message = f"expected {_COLUMNS} columns, got {len(cols)}"
            break
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
                message = f"non-numeric id {raw_id!r}"
                break
        if by_row:
            try:
                int(cols[6])
            except ValueError:
                message = f"non-numeric head {cols[6]!r}"
                break
        rows.append(cols)
    if message is not None:
        if not by_row:  # a row before this one may have a bad head: read the rows again
            stats.dropped_ranges, stats.dropped_empty_nodes = counted
            return _parse_block(lines, first_line, ordinal, stats, by_row=True)
        # no row before ``text`` equals it: that row would have failed first
        raise ConlluError(message, ordinal, first_line + lines.index(text))
    sent_id = metadata.get("sent_id") or f"s{ordinal}"
    # ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC
    ids, forms, lemmas, upos, _, _, heads, deprels, _, _ = zip(*rows) if rows else ((),) * _COLUMNS
    try:
        heads = tuple(map(int, heads))
    except ValueError:  # the first bad head and its line, read as the rows come
        stats.dropped_ranges, stats.dropped_empty_nodes = counted
        return _parse_block(lines, first_line, ordinal, stats, by_row=True)
    try:
        return DepTree._from_columns(
            tuple(map(int, ids)), forms, lemmas, upos, heads, deprels,
            sentence_id=sent_id, metadata=metadata,
        )
    except TreeError as exc:
        raise ConlluError(str(exc), ordinal, first_line) from None


def parse_blocks(
    blocks: Iterable[Block],
    on_error: str = "skip",
    stats: ReadStats | None = None,
    line: Callable[[DepTree], object] | None = None,
) -> Iterator:
    """Yield one result per block from ``split_blocks``, in block order: the
    validated ``DepTree``, or ``line(tree)`` when ``line`` is given.

    ``on_error`` is ``"skip"`` (drop bad sentences, count them in
    ``stats.skipped``) or ``"abort"`` (raise ``ConlluError``); any other
    value raises ``ValueError`` here, not when the first result is drawn.
    ``line`` raises ``_Skip(message, reason)`` for a tree that has no
    result: under abort that is a ``ConlluError`` at the block's first
    line, under skip a sentence tallied as ``reason``.
    """
    if on_error not in ("skip", "abort"):
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    return _parse_blocks(blocks, on_error == "abort", ReadStats() if stats is None else stats,
                         line)


def _parse_blocks(blocks: Iterable[Block], abort: bool, stats: ReadStats,
                  line: Callable[[DepTree], object] | None) -> Iterator:
    for ordinal, first_line, lines in blocks:
        try:
            tree = _parse_block(lines, first_line, ordinal, stats)
            result = tree if line is None else line(tree)
        except ConlluError:
            if abort:
                raise
            stats.skip(UNREADABLE)
            continue
        except _Skip as exc:
            message, reason = exc.args
            if abort:
                raise ConlluError(message, ordinal, first_line) from None
            stats.skip(reason)
            continue
        stats.sentences += 1
        yield result


def read_conllu(
    source: Source,
    on_error: str = "skip",
    stats: ReadStats | None = None,
) -> Iterator[DepTree]:
    """Yield one validated ``DepTree`` per sentence block.

    ``on_error`` and ``stats`` work as in ``parse_blocks``. Input is
    consumed a chunk or a line at a time, whole files are never buffered.
    """
    return parse_blocks(iter_blocks(source), on_error, stats)


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
