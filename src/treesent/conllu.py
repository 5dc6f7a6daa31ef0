"""Streaming CoNLL-U reader and writer.

Only the columns the pipeline uses are retained: ID, FORM, LEMMA, UPOS,
HEAD, DEPREL, plus ``#`` comment metadata. The remaining columns are
written back as underscores. Multiword token ranges (``1-2``) and empty
nodes (``1.1``) are dropped silently, with a tally kept in ``ReadStats``.

Paths and byte streams are read in chunks cut just past a blank line, so
that a chunk holds whole sentences and can be split and parsed on its own,
in this process or in a pool worker. The first read is of 4 KiB, so that
the first sentences are soon done; each later read is twice the last, up
to ``CHUNK_BYTES``. Bridge lines, one record per line, are read the same
way and cut at any newline.
"""

from __future__ import annotations

import io
import os
import re
from collections import Counter
from itertools import chain

from .tree import DataError, DepTree, TreeError, _Tally

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
    # whole lines as ``read_line_chunks`` yields them: (number of the first, bytes)
    LineChunk = Tuple[int, bytes]

_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_ID = re.compile(r"^\d+\.\d+$")
_COLUMNS = 10
# a line of whitespace, which ends a block like an empty line, once the text
# searched starts and ends with a newline
_SPACE_LINE = re.compile(r"\n[^\S\n]+\n")
# where a chunk of CoNLL-U may end, matched from where the search starts:
# just past the last empty or ASCII whitespace line, at its own newline
_BLOCK_CUT = re.compile(rb"(?s).*(?<=\n)[ \t\r\f\v]*\n")
# where a chunk of bridge lines may end: just past the last newline
_LINE_CUT = re.compile(rb"(?s).*\n")
# how many bytes before each read are searched too, for a blank line that
# straddles two reads; a longer one is not cut at, so its chunk runs on
_BLANK_REACH = 16
# the most bytes read from a path or byte stream at a time, before a chunk is cut
CHUNK_BYTES = 1 << 16
# the first read, when CHUNK_BYTES is larger; each later one is twice the last
FIRST_CHUNK_BYTES = 1 << 12
# a line that may be whitespace as ``str.isspace`` sees it, after the newline
# before it: each byte could be part of a whitespace character
_MAYBE_SPACE_LINE = re.compile(rb"\n([\t\x0b-\r\x1c- \x80-\xff]*)(?=\n)")
# a UTF-8 byte order mark, dropped where it starts an input
_BOM = b"\xef\xbb\xbf"
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


class ReadStats(_Tally):
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


def _cuts(source: Source, cut: re.Pattern) -> Iterator[bytes]:
    """A path or byte stream in runs of whole lines, each cut where ``cut``
    last matches in what was read, once ``FIRST_CHUNK_BYTES`` (at most
    ``CHUNK_BYTES``) were read, then twice that, up to ``CHUNK_BYTES``."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from _cuts(fh, cut)
        return
    read = getattr(source, "read1", source.read)  # what a pipe holds, not a full size
    pending = bytearray()
    size = min(FIRST_CHUNK_BYTES, CHUNK_BYTES)
    while True:
        data = read(size)
        if not data:
            break
        size = min(2 * size, CHUNK_BYTES)
        start = max(len(pending) - _BLANK_REACH, 0)
        pending += data
        found = cut.match(pending, start)
        if found:
            yield bytes(pending[:found.end()])
            del pending[:found.end()]
    if pending:
        yield bytes(pending)


def read_chunks(source: Source) -> Optional[Iterator[Chunk]]:
    """The input as ``(first_ordinal, first_line, bytes)`` chunks of whole
    sentences, for a path or a byte stream; None for a text stream or a
    line iterable.

    Each chunk carries the ordinal and line number that its first sentence
    and line have in the whole input, which ``chunk_blocks`` continues
    from, so a pool worker can split and parse a chunk on its own. They are
    counted here, not parsed: lines by their newlines, sentences by
    ``count_blocks``; ``_split_chunks`` numbers chunks from the blocks split.
    """
    if not _in_bytes(source):
        return None
    return _numbered(_cuts(source, _BLOCK_CUT))


def _numbered(cuts: Iterable[bytes]) -> Iterator[Chunk]:
    ordinal = lineno = 1
    for data in cuts:
        yield ordinal, lineno, data
        ordinal += count_blocks(data.removeprefix(_BOM) if lineno == 1 else data)
        lineno += data.count(b"\n")


def _split_chunks(cuts: Iterable[bytes]) -> Iterator[List[Block]]:
    """The blocks of each run of ``cuts``, numbered on from the runs before."""
    ordinal = lineno = 1
    for data in cuts:
        blocks = list(chunk_blocks((ordinal, lineno, data)))
        yield blocks
        ordinal = blocks[-1][0] + 1 if blocks else ordinal
        lineno += data.count(b"\n")


def count_blocks(data: bytes) -> int:
    """How many blocks ``split_blocks`` finds in the lines of ``data``.

    Each run of lines between blank ones is a block. A line is blank when
    it is empty or whitespace as ``str.isspace`` sees it, ``\\r`` included;
    a line that is not valid UTF-8 is not. Only lines of bytes that could
    all be whitespace are decoded to tell.
    """
    count = after = 0  # ``after``: where the line after the last blank one starts
    for match in _MAYBE_SPACE_LINE.finditer(b"\n" + data + b"\n"):
        line = match.group(1)
        if line:
            text = decode_line(line)
            if text is None or not text.isspace():
                continue
        count += match.start() > after
        after = match.end()
    return count + (after < len(data))


def read_line_chunks(source: Source) -> Optional[Iterator[LineChunk]]:
    """The input as ``(first_line, bytes)`` chunks of whole lines, for a
    path or a byte stream; None for a text stream or a line iterable.
    ``chunk_lines`` numbers a chunk's lines from its first line's number in
    the whole input."""
    if not _in_bytes(source):
        return None
    return _line_numbered(_cuts(source, _LINE_CUT))


def _line_numbered(cuts: Iterable[bytes]) -> Iterator[LineChunk]:
    lineno = 1
    for data in cuts:
        yield lineno, data
        lineno += data.count(b"\n")


def chunk_lines(chunk: LineChunk) -> Iterator[Tuple[int, Line]]:
    """``(lineno, line)`` per line of one chunk from ``read_line_chunks``,
    as ``numbered_lines`` numbers them in the whole input, without their
    newlines.

    The chunk that starts at line 1 loses one leading byte order mark. A
    chunk that is valid UTF-8 gives its lines as text, decoded at once;
    any other gives them as bytes.
    """
    lineno, data = chunk
    if lineno == 1:
        data = data.removeprefix(_BOM)
    try:
        lines: List[Line] = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = data.split(b"\n")
    return enumerate(lines, start=lineno)


def iter_blocks(source: Source) -> Iterator[Block]:
    """``split_blocks`` of any source, a chunk at a time from a path or byte
    stream, each chunk numbered from the blocks of the ones before it."""
    if not _in_bytes(source):
        return split_blocks(iter_raw_lines(source))
    return chain.from_iterable(_split_chunks(_cuts(source, _BLOCK_CUT)))


def chunk_blocks(chunk: Chunk) -> Iterator[Block]:
    """The blocks of one chunk from ``read_chunks``, as ``split_blocks``
    yields them from the whole input.

    The chunk that starts at line 1 loses one leading byte order mark, as
    ``iter_raw_lines`` drops it. The chunk is decoded once and split on
    empty lines. A chunk that is not valid UTF-8, or holds a ``\\r`` or a
    whitespace-only line, goes through ``split_blocks`` line by line instead.
    """
    ordinal, lineno, data = chunk
    if lineno == 1:
        data = data.removeprefix(_BOM)
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


def _parse_block(lines: List[Line], first_line: int, ordinal: int, stats: ReadStats) -> DepTree:
    metadata: dict = {}
    rows: List[List] = []
    message = None  # what is wrong with ``text``, the row that ends the loop early
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
        try:
            cols[6] = int(cols[6])
        except ValueError:
            message = f"non-numeric head {cols[6]!r}"
            break
        rows.append(cols)
    if message is not None:
        # no row before ``text`` equals it: that row would have failed first
        raise ConlluError(message, ordinal, first_line + lines.index(text))
    sent_id = metadata.get("sent_id") or f"s{ordinal}"
    # ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC
    ids, forms, lemmas, upos, _, _, heads, deprels, _, _ = zip(*rows) if rows else ((),) * _COLUMNS
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
