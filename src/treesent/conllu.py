"""Streaming CoNLL-U reader and writer.

Only the columns the pipeline uses are retained: ID, FORM, LEMMA, UPOS,
HEAD, DEPREL, plus ``#`` comment metadata. The remaining columns are
written back as underscores. Multiword token ranges (``1-2``) and empty
nodes (``1.1``) are dropped silently, with a tally kept in ``ReadStats``.
A block is read whole first: its rows past the leading comments are split
once each and read as columns if every row has 10 columns, the IDs other
than ranges and empty nodes are ``1``..``n`` as text and every HEAD is one
of ``0``..``n``. Any other block is read a row at a time, to its first bad row.

Where a sentence starts and ends follows one rule, ``split_blocks``'s,
whatever the source. Paths and byte streams are read in chunks cut just
past a blank line, so that a chunk holds whole sentences and is split on
its own (``chunk_blocks``), its blocks numbered on from those of the
chunks before it (``_split_chunks``); a pool's workers are sent these
blocks. Each chunk carries the number its first line has in the whole
input, counted where the chunk is cut, and one byte order mark that
starts the input leaves with the first chunk. The first read is of 4 KiB,
so that the first sentences are soon done; each later read is twice the
last, up to ``CHUNK_BYTES``. Bridge lines, one
record per line, are read the same way and cut at any newline.
"""

from __future__ import annotations

import io
import os
from itertools import chain, compress, filterfalse

from .tree import DataError, DepTree, TreeError, _Tally

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import IO, Callable, Iterable, Iterator, List, Optional, Tuple, Union

    Line = Union[str, bytes]
    Source = Union[str, os.PathLike, IO[bytes], IO[str], Iterable[Line]]
    # one sentence as ``split_blocks`` yields it: (ordinal, first_line, [line, ...])
    Block = Tuple[int, int, List[Line]]
    # whole CoNLL-U lines of a byte input, numbered as in the whole input:
    # (ordinal of its first sentence, number of its first line, bytes)
    Chunk = Tuple[int, int, bytes]
    # whole lines of a byte input, as ``_cuts`` yields them: (number of the first, bytes)
    LineChunk = Tuple[int, bytes]

_COLUMNS = 10
# how many bytes before each read are searched too, for a blank line that
# straddles two reads; a longer one is not cut at, so its chunk runs on
_BLANK_REACH = 16
# the most bytes read from a path or byte stream at a time, before a chunk is cut
CHUNK_BYTES = 1 << 16
# the first read, when CHUNK_BYTES is larger; each later one is twice the last
FIRST_CHUNK_BYTES = 1 << 12
# a UTF-8 byte order mark, dropped where it starts an input
_BOM = b"\xef\xbb\xbf"
# the reason ``parse_blocks`` skips a sentence, in the words that report it
UNREADABLE = "unreadable sentences"
# what a bad sentence or record does: is left out of the run, or ends it
_ON_ERROR = ("skip", "abort")


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


class ReadStats(_Tally):
    """Tallies filled in by ``read_conllu``, or a command's run, as it goes."""

    _fields = ("sentences", "skipped", "dropped_ranges", "dropped_empty_nodes", "skipped_by")

    def __init__(self, sentences: int = 0, skipped: int = 0, dropped_ranges: int = 0,
                 dropped_empty_nodes: int = 0, skipped_by: dict | None = None) -> None:
        self.sentences = sentences
        self.skipped = skipped
        self.dropped_ranges = dropped_ranges
        self.dropped_empty_nodes = dropped_empty_nodes
        # ``skipped`` split by reason: UNREADABLE, or a command's own reasons
        self.skipped_by = {} if skipped_by is None else skipped_by

    def skip(self, reason: str) -> None:
        self.skipped += 1
        self.skipped_by[reason] = self.skipped_by.get(reason, 0) + 1


def iter_raw_lines(source: Source) -> Iterator[Line]:
    """Lines as the source holds them: bytes from paths and byte streams.

    One byte order mark that starts the first line is dropped.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from iter_raw_lines(fh)
        return
    lines = iter(source)
    for first in lines:
        yield first.removeprefix(_BOM if isinstance(first, bytes) else "\ufeff")
        yield from lines


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


def table_lines(
    source: Source, error: Callable[[str, int], Exception]
) -> Iterator[Tuple[int, str]]:
    """``(lineno, line)`` per line of a text table, stripped, skipping blank
    lines and ``#`` comments. A line that is not valid UTF-8 raises
    ``error("not valid UTF-8", lineno)``.
    """
    for lineno, text in numbered_lines(source):
        if text is None:
            raise error("not valid UTF-8", lineno)
        line = text.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def settings_lines(
    source: Source, error: Callable[[str, int], Exception]
) -> Iterator[Tuple[int, str, str]]:
    """``(lineno, key, value)`` per setting of a ``key = value`` file, one at
    a time, so that a caller checking each as it comes reports the first bad
    line. Lines are read by ``table_lines``. A line that has no ``=`` or key,
    or repeats a key, raises ``error(message, lineno)``.
    """
    seen = set()
    for lineno, line in table_lines(source, error):
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise error(f"expected 'key = value', got {line!r}", lineno)
        if key in seen:
            raise error(f"duplicate key {key!r}", lineno)
        seen.add(key)
        yield lineno, key, value


def split_blocks(lines: Iterable[Line], ordinal: int = 1, lineno: int = 1) -> Iterator[Block]:
    """Group lines into sentence blocks, ``(ordinal, first_line, [line, ...])``.

    The rule ``chunk_blocks`` follows: empty lines and whitespace lines (as
    ``str.isspace`` sees them) end a block and every other line joins it, so
    a block's lines are consecutive and ``first_line`` numbers them all. The
    first block is sentence ``ordinal`` and the first line is line
    ``lineno``. A kept line loses its ``\\n`` and then its trailing ``\\r``s.
    A line that is not valid UTF-8 stays ``bytes``, so the sentence holding
    it fails when its block is parsed.
    """
    block: List[Line] = []
    for lineno, raw in enumerate(lines, start=lineno):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                block.append(raw)
                continue
        if raw.strip():  # strips exactly what ``str.isspace`` accepts
            block.append(raw.rstrip("\n").rstrip("\r"))
        elif block:
            yield ordinal, lineno - len(block), block
            ordinal += 1
            block = []
    if block:
        yield ordinal, lineno + 1 - len(block), block


def _block_end(data: bytearray, start: int) -> int:
    """Where a chunk of CoNLL-U in ``data`` may end: just past the newline of
    the last empty or ASCII whitespace line that starts at ``start`` or later
    (the newline before it may be the byte before ``start``); 0 if none does."""
    low = max(start - 1, 0)  # where the newline before such a line may be
    end = data.rfind(b"\n", start)
    while end >= start:  # each line from the last, while it starts at ``start`` or later
        before = data.rfind(b"\n", low, end)
        if before < 0:
            break
        if not data[before + 1:end].strip():  # the slice holds no newline
            return end + 1
        end = before
    return 0


def _line_end(data: bytearray, start: int) -> int:
    """Where a chunk of bridge lines in ``data`` may end: just past the last
    newline at ``start`` or later; 0 if there is none."""
    return data.rfind(b"\n", start) + 1


def _cuts(source: Source, cut: Callable[[bytearray, int], int]) -> Iterator[LineChunk]:
    """A path or byte stream in runs of whole lines, ``(number of the first
    line, bytes)``, each cut where ``cut`` (``_block_end`` or ``_line_end``)
    puts the end of what was read, once ``FIRST_CHUNK_BYTES`` (at most
    ``CHUNK_BYTES``) were read, then twice that, up to ``CHUNK_BYTES``.

    Lines are numbered as ``numbered_lines`` numbers them in the whole input.
    One byte order mark that starts the input leaves with the first run.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from _cuts(fh, cut)
        return
    read = getattr(source, "read1", source.read)  # what a pipe holds, not a full size
    pending = bytearray()
    size = min(FIRST_CHUNK_BYTES, CHUNK_BYTES)
    lineno, mark = 1, _BOM  # mark: what the next run loses from its start
    while True:
        data = read(size)
        size = min(2 * size, CHUNK_BYTES)
        start = max(len(pending) - _BLANK_REACH, 0)
        pending += data
        end = cut(pending, start) if data else len(pending)  # the rest, at the end
        if end:
            chunk = bytes(pending[:end])
            del pending[:end]
            yield lineno, chunk.removeprefix(mark)
            lineno += chunk.count(b"\n")
            mark = b""
        if not data:
            return


def _split_chunks(cuts: Iterable[LineChunk]) -> Iterator[List[Block]]:
    """The blocks of each run of ``cuts``, numbered on from the runs before."""
    ordinal = 1
    for lineno, data in cuts:
        blocks = list(chunk_blocks((ordinal, lineno, data)))
        yield blocks
        ordinal = blocks[-1][0] + 1 if blocks else ordinal


def chunk_lines(chunk: LineChunk) -> Iterator[Tuple[int, Line]]:
    """``(lineno, line)`` per line of one chunk from ``_cuts``, as
    ``numbered_lines`` numbers them in the whole input, without their
    newlines.

    A chunk that is valid UTF-8 gives its lines as text, decoded at once;
    any other gives them as bytes.
    """
    lineno, data = chunk
    try:
        lines: List[Line] = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = data.split(b"\n")
    return enumerate(lines, start=lineno)


def iter_blocks(source: Source) -> Iterator[Block]:
    """``split_blocks`` of any source, a chunk at a time from a path or byte
    stream, each chunk numbered from the blocks of the ones before it."""
    if not isinstance(source, (str, os.PathLike, io.BufferedIOBase, io.RawIOBase)):
        return split_blocks(iter_raw_lines(source))
    return chain.from_iterable(_split_chunks(_cuts(source, _block_end)))


def chunk_blocks(chunk: Chunk) -> Iterator[Block]:
    """The blocks of one ``(ordinal, line, bytes)`` chunk, as ``split_blocks``
    yields them from the whole input, numbered from the chunk's first
    ordinal and line."""
    # bytes that are not UTF-8 go to split_blocks; text is cut at its empty lines,
    # one C search per block, once whitespace lines are "" and "\r"s end no line
    ordinal, lineno, data = chunk
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        yield from split_blocks(io.BytesIO(data), ordinal, lineno)
        return
    lines = text.split("\n")
    if "\r" in text or any(map(str.isspace, lines)):
        lines = ["" if line.isspace() else line.rstrip("\r") for line in lines]
    lines.append("")  # so that the last block ends at an empty line too
    start, last = 0, len(lines) - 1
    while start < last:
        end = lines.index("", start)
        if end > start:
            yield ordinal, lineno + start, lines[start:end]
            ordinal += 1
        start = end + 1


def _id_pair(raw_id: str, sep: str) -> bool:
    """True if ``raw_id`` is two decimal numbers joined by ``sep``."""
    first, found, second = raw_id.partition(sep)
    return bool(found) and first.isdecimal() and second.isdecimal()


# "0", "1", ...: numbers as text, up to the longest sentence yet, and each one's value
_NUMBER_TEXT: Tuple[str, ...] = ("0",)
_NUMBER = {"0": 0}


def _number_text(n: int) -> Tuple[str, ...]:
    """``_NUMBER_TEXT``, grown first if it does not reach ``n``."""
    global _NUMBER_TEXT
    if n >= len(_NUMBER_TEXT):
        _NUMBER_TEXT = tuple(map(str, range(n + 1)))
        _NUMBER.update(zip(_NUMBER_TEXT, range(n + 1)))
    return _NUMBER_TEXT


def _regular_columns(rows: List[List[str]], stats: ReadStats) -> Optional[tuple]:
    """FORM, LEMMA, UPOS, HEAD and DEPREL of token rows, split at tabs, that
    pass the whole-block tests, else None. Ranges and empty nodes are
    tallied only when all pass."""
    try:
        columns = list(zip(*rows, strict=True))
    except ValueError:  # rows of unequal length
        return None
    if len(columns) != _COLUMNS:
        return None
    numbers = _number_text(len(rows))
    ranges = empty_nodes = 0
    if columns[0] != numbers[1:len(rows) + 1]:  # leave out ranges and empty nodes
        dropped = list(filterfalse(str.isdecimal, columns[0]))
        ranges = sum(_id_pair(raw_id, "-") for raw_id in dropped)
        empty_nodes = sum(_id_pair(raw_id, ".") for raw_id in dropped)
        rows = list(compress(rows, map(str.isdecimal, columns[0])))
        columns = list(zip(*rows))
        if (ranges + empty_nodes < len(dropped) or not rows
                or columns[0] != numbers[1:len(rows) + 1]):
            return None
    try:
        heads = tuple(map(_NUMBER.__getitem__, columns[6]))
    except KeyError:
        return None
    stats.dropped_ranges += ranges
    stats.dropped_empty_nodes += empty_nodes
    return columns[1], columns[2], columns[3], heads, columns[7]


def _parse_block(lines: List[Line], first_line: int, ordinal: int, stats: ReadStats) -> DepTree:
    metadata: dict = {}
    rows: List[List] = []
    # ids None: they run 1..n, as the whole-block tests found; columns (): those tests failed
    ids = columns = None
    for lineno, text in enumerate(lines, first_line):
        if isinstance(text, bytes):
            raise ConlluError("not valid UTF-8", ordinal, lineno)
        if text[:1] == "#":
            key, sep, value = text[1:].partition("=")
            if sep:
                metadata[key.strip()] = value.strip()
            elif key.strip():
                metadata[key.strip()] = None
            continue
        if columns is None:  # the first token row: all the rest are read at once if they pass
            first_row = lineno  # split: the lines from here on, split at tabs
            try:
                split = [line.split("\t") for line in lines[lineno - first_line:]]
            except TypeError:  # a line of bytes further on, which this loop reports
                split = []
            columns = _regular_columns(split, stats) or ()
            if columns:
                break
        cols = split[lineno - first_row] if split else text.split("\t")
        if len(cols) != _COLUMNS:
            raise ConlluError(f"expected {_COLUMNS} columns, got {len(cols)}", ordinal, lineno)
        raw_id = cols[0]
        if not raw_id.isdecimal():
            if _id_pair(raw_id, "-"):  # a multiword token range
                stats.dropped_ranges += 1
                continue
            if _id_pair(raw_id, "."):  # an empty node
                stats.dropped_empty_nodes += 1
                continue
        try:
            cols[0] = int(raw_id)
        except ValueError:
            raise ConlluError(f"non-numeric id {raw_id!r}", ordinal, lineno) from None
        try:
            cols[6] = int(cols[6])
        except ValueError:
            raise ConlluError(f"non-numeric head {cols[6]!r}", ordinal, lineno) from None
        rows.append(cols)
    if not columns:  # ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC
        ids, *columns = zip(*rows) if rows else ((),) * _COLUMNS
        columns = columns[:3] + columns[5:7]
    sent_id = metadata.get("sent_id") or f"s{ordinal}"
    try:
        return DepTree._from_columns(ids, *columns, sentence_id=sent_id, metadata=metadata)
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
    if on_error not in _ON_ERROR:
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
    out = [f"# {key}" if value is None else f"# {key} = {value}"
           for key, value in tree.metadata.items()]
    number = _number_text(len(tree))  # ids and heads as text, each a tuple lookup
    out += [f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{number[head]}\t{deprel}\t_\t_"
            for i, form, lemma, upos, head, deprel in zip(
                number[1:len(tree) + 1], tree.forms, tree.lemmas, tree.upos, tree.heads,
                tree.deprels)]
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
