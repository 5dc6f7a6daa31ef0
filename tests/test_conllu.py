"""CoNLL-U reading and writing."""

import io
import pickle
import re
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesent import (
    ConlluError, DepTree, ReadStats, demo_treebank_path, demo_ud_path, dumps_conllu,
    read_conllu, write_conllu,
)
from treesent import conllu
from treesent.conllu import (
    _parse_block, chunk_blocks, chunk_lines, count_blocks, iter_raw_lines, numbered_lines,
    parse_blocks, split_blocks,
)
from treesent.tree import random_tree

SIMPLE = """\
# sent_id = s1
1\tthe\tthe\tDET\t_\t_\t2\tdet\t_\t_
2\tphone\tphone\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tworks\twork\tVERB\t_\t_\t0\troot\t_\t_

"""


def read_all(text, **kw):
    return list(read_conllu(io.StringIO(text), **kw))


def test_read_simple_block():
    trees = read_all(SIMPLE)
    assert len(trees) == 1
    t = trees[0]
    assert t.sentence_id == "s1"
    assert t.heads == (2, 3, 0)
    assert t.forms == ("the", "phone", "works")
    assert t.tokens[2].lemma == "work"
    assert t.metadata == {"sent_id": "s1"}


def test_empty_input():
    assert read_all("") == []
    assert read_all("\n\n\n") == []


def test_missing_trailing_blank_line():
    assert read_all(SIMPLE.rstrip("\n"))[0].heads == (2, 3, 0)


def test_crlf_accepted():
    trees = read_all(SIMPLE.replace("\n", "\r\n"))
    assert trees[0].heads == (2, 3, 0)


def test_sentence_id_defaults_to_ordinal():
    text = SIMPLE.replace("# sent_id = s1\n", "")
    assert read_all(text)[0].sentence_id == "s1"
    two = text + "\n" + text
    assert [t.sentence_id for t in read_all(two)] == ["s1", "s2"]


def test_metadata_round_trip_verbatim():
    trees = read_all(SIMPLE)
    assert "# sent_id = s1\n" in dumps_conllu(trees)


def test_write_read_round_trip_simple():
    trees = read_all(SIMPLE)
    assert dumps_conllu(read_all(dumps_conllu(trees))) == dumps_conllu(trees)


def test_round_trip_random_trees_bitwise():
    trees = [random_tree(1 + seed % 15, seed) for seed in range(1000)]
    for t in trees:
        t.metadata["sent_id"] = t.sentence_id
    once = dumps_conllu(trees)
    back = read_all(once)
    assert [b.tokens for b in back] == [t.tokens for t in trees]
    assert dumps_conllu(back) == once


def test_write_to_path(tmp_path):
    dest = tmp_path / "out.conllu"
    write_conllu(read_all(SIMPLE), dest)
    assert read_all(dest.read_text())[0].heads == (2, 3, 0)


def test_multiword_ranges_and_empty_nodes_dropped():
    text = (
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\t_\t_\t3\tcase\t_\t_\n"
        "2\tel\tel\tDET\t_\t_\t3\tdet\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tcoche\tcoche\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
    )
    stats = ReadStats()
    trees = read_all(text, stats=stats)
    assert trees[0].heads == (3, 3, 0)
    assert stats.dropped_ranges == 1
    assert stats.dropped_empty_nodes == 1


@pytest.mark.parametrize(
    "mutation,msg",
    [
        (lambda s: s.replace("2\tdet", "9\tdet", 1), "out of range"),
        (lambda s: s.replace("\t3\tnsubj", "\tx\tnsubj"), "non-numeric head"),
        (lambda s: s.replace("1\tthe", "one\tthe", 1), "non-numeric id"),
        (lambda s: s.replace("\t2\tdet\t_\t_", "\t2\tdet\t_"), "columns"),
        (lambda s: s.replace("0\troot", "1\tdep"), "no root"),
        (lambda s: s.replace("\t2\tdet", "\t0\tdet"), "root tokens"),
    ],
)
def test_bad_sentences_abort_with_location(mutation, msg):
    text = mutation(SIMPLE)
    with pytest.raises(ConlluError, match=msg) as err:
        read_all(text, on_error="abort")
    assert err.value.sentence == 1
    assert err.value.line >= 1


def test_bad_sentences_skipped_by_default():
    bad = SIMPLE.replace("2\tdet", "9\tdet", 1)
    text = bad + SIMPLE.replace("s1", "s2")
    stats = ReadStats()
    trees = read_all(text, stats=stats)
    assert [t.sentence_id for t in trees] == ["s2"]
    assert stats.skipped == 1
    assert stats.sentences == 1


def test_unknown_error_policy_rejected():
    with pytest.raises(ValueError, match="on_error"):
        read_all(SIMPLE, on_error="ignore")


@pytest.mark.parametrize("call", [
    lambda: read_conllu(io.StringIO(SIMPLE), on_error="bogus"),
    lambda: read_conllu(io.BytesIO(SIMPLE.encode()), on_error="bogus"),
    lambda: read_conllu("no/such/file.conllu", on_error="bogus"),
    lambda: parse_blocks([], on_error="bogus"),
], ids=["text", "bytes", "path", "parse_blocks"])
def test_an_unknown_error_policy_is_rejected_by_the_call_itself(call):
    # nothing is drawn from the result: the call alone raises
    with pytest.raises(ValueError, match="on_error must be 'skip' or 'abort', got 'bogus'"):
        call()


def test_bare_comment_round_trip():
    text = "# newdoc\n" + SIMPLE[len("# sent_id = s1\n"):]
    trees = read_all(text)
    assert trees[0].metadata == {"newdoc": None}
    assert dumps_conllu(trees).startswith("# newdoc\n")


def test_split_blocks_numbers_sentences_and_lines():
    text = "\n" + SIMPLE + "\n\n" + SIMPLE.rstrip("\n")
    blocks = list(split_blocks(io.StringIO(text)))
    assert [(ordinal, first_line) for ordinal, first_line, _ in blocks] == [(1, 2), (2, 9)]
    assert blocks[0][2][0] == "# sent_id = s1"
    assert len(blocks[1][2]) == 4
    trees = list(parse_blocks(blocks, on_error="abort"))
    assert [t.tokens for t in trees] == [t.tokens for t in read_all(text)]


@pytest.mark.parametrize(
    "raw_id,heads,counts,error",
    [
        ("3", (2, 0, 2), (0, 0), None),
        ("1-2", (2, 0), (1, 0), None),
        ("1.1", (2, 0), (0, 1), None),
        ("\u0663", (2, 0, 2), (0, 0), None),  # ARABIC-INDIC DIGIT THREE
        (" 3", (2, 0, 2), (0, 0), None),
        ("x", None, (0, 0), "sentence 4 (line 13): non-numeric id 'x'"),
        ("-1", None, (0, 0), "sentence 4 (line 11): token ids not contiguous: expected 3, got -1"),
    ],
)
def test_parse_block_token_ids(raw_id, heads, counts, error):
    rows = ["1\tit\tit\tPRON\t_\t_\t2\tnsubj\t_\t_", "2\tworks\twork\tVERB\t_\t_\t0\troot\t_\t_"]
    rows.append(f"{raw_id}\twell\twell\tADV\t_\t_\t2\tadvmod\t_\t_")
    stats = ReadStats()
    if error is None:
        tree = _parse_block(rows, 11, 4, stats)
        assert tree.heads == heads
        assert tree.sentence_id == "s4"
    else:
        with pytest.raises(ConlluError) as err:
            _parse_block(rows, 11, 4, stats)
        assert str(err.value) == error
    assert (stats.dropped_ranges, stats.dropped_empty_nodes) == counts
    assert (stats.sentences, stats.skipped) == (0, 0)


@pytest.mark.parametrize("drop", [
    "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_", "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
], ids=["range", "empty-node"])
@pytest.mark.parametrize("before", [True, False], ids=["drop-before", "drop-after"])
def test_a_bad_head_ends_the_tally_of_dropped_rows_where_it_stands(drop, before):
    # rows past the first bad one are not read, as the tally shows
    rows = ["1\tit\tit\tPRON\t_\t_\tx\tnsubj\t_\t_", "2\tworks\twork\tVERB\t_\t_\t0\troot\t_\t_"]
    rows.insert(0 if before else 1, drop)
    stats = ReadStats()
    with pytest.raises(ConlluError) as err:
        _parse_block(rows, 11, 4, stats)
    assert str(err.value) == f"sentence 4 (line {12 if before else 11}): non-numeric head 'x'"
    tally = stats.dropped_ranges + stats.dropped_empty_nodes
    assert tally == (1 if before else 0)


# the regexes the reader used, kept as oracles for the string code that replaced them
_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_ID = re.compile(r"^\d+\.\d+$")
_SPACE_LINE = re.compile(r"\n[^\S\n]+\n")
_BLOCK_CUT = re.compile(rb"(?s).*(?<=\n)[ \t\r\f\v]*\n")
_LINE_CUT = re.compile(rb"(?s).*\n")


def _row_by_row(lines, first_line, ordinal, stats):
    """The heads of a block's token rows, each row checked in full as it is
    read, HEAD included, or the ``ConlluError`` of the first bad row."""
    heads = []
    for lineno, text in enumerate(lines, first_line):
        if isinstance(text, bytes):
            return ConlluError("not valid UTF-8", ordinal, lineno)
        if text.startswith("#"):
            continue
        cols = text.split("\t")
        if len(cols) != 10:
            return ConlluError(f"expected 10 columns, got {len(cols)}", ordinal, lineno)
        if not cols[0].isdecimal():
            if _RANGE_ID.match(cols[0]):
                stats.dropped_ranges += 1
                continue
            if _EMPTY_ID.match(cols[0]):
                stats.dropped_empty_nodes += 1
                continue
            try:
                int(cols[0])
            except ValueError:
                return ConlluError(f"non-numeric id {cols[0]!r}", ordinal, lineno)
        try:
            heads.append(int(cols[6]))
        except ValueError:
            return ConlluError(f"non-numeric head {cols[6]!r}", ordinal, lineno)
    return tuple(heads)


ROW_ERRORS = ("not valid UTF-8", "expected 10 columns", "non-numeric")
_ROWS = st.sampled_from([
    "# sent_id = x", "# note", "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_",
    "2\tb\tb\tADJ\t_\t_\t1\tamod\t_\t_", "2\tb\tb\tADJ\t_\t_\tx\tamod\t_\t_",
    "3\tc\tc\tADJ\t_\t_\t 1\tamod\t_\t_", "3\tc\tc\tADJ\t_\t_\t\u0661\tamod\t_\t_",
    "3\tc\tc\tADJ\t_\t_\t-\tamod\t_\t_", "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_",
    "1.1\te\t_\t_\t_\t_\t_\t_\t_\t_", "z\tb\tb\tADJ\t_\t_\t1\tamod\t_\t_",
    "4\tshort\t_\t_\t_\t_\t1\t_\t_", b"4\t\xff\t_\tX\t_\t_\t1\tdep\t_\t_",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROWS, min_size=1, max_size=8))
def test_a_block_fails_at_its_first_bad_row_with_the_tallies_of_the_rows_before(lines):
    expected, stats = ReadStats(), ReadStats()
    want = _row_by_row(lines, 21, 3, expected)
    try:
        got = _parse_block(lines, 21, 3, stats).heads
    except ConlluError as exc:
        got = str(exc)
        if not isinstance(want, ConlluError):  # good rows that make no tree
            assert exc.line == 21 and not exc.message.startswith(ROW_ERRORS)
            got = want
    assert got == (str(want) if isinstance(want, ConlluError) else want)
    assert (stats.dropped_ranges, stats.dropped_empty_nodes) == (
        expected.dropped_ranges, expected.dropped_empty_nodes)


def test_whitespace_only_lines_end_a_block():
    text = SIMPLE.rstrip("\n") + "\n \t\r\n" + SIMPLE.replace("s1", "s2") + "\u3000\n"
    blocks = list(split_blocks(io.StringIO(text)))
    assert [(ordinal, first_line) for ordinal, first_line, _ in blocks] == [(1, 1), (2, 6)]
    assert len(blocks[1][2]) == 4


# one input line: (text or undecodable bytes, line end); text holds no line end
_text = st.one_of(
    st.sampled_from(["", " ", "\t", " \t ", "\u3000", "# sent_id = a", "1\ta\t_"]),
    # surrogates have no UTF-8 bytes, so no input line holds one
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=6),
)
_line = st.tuples(
    st.one_of(_text, st.builds(lambda text: b"\xff" + text.encode("utf-8"), _text)),
    st.sampled_from(["\n", "\r\n", ""]),
)


@given(st.lists(_line, max_size=30))
def test_a_block_holds_consecutive_lines_from_its_first_line(lines):
    raw = [body + end.encode() if isinstance(body, bytes) else (body + end).encode("utf-8")
           for body, end in lines]
    blocks = list(split_blocks(raw))
    assert [ordinal for ordinal, _, _ in blocks] == list(range(1, len(blocks) + 1))
    placed = []
    for _, first_line, block in blocks:
        for i, line in enumerate(block):
            body, end = lines[first_line + i - 1]
            # an undecodable line stays bytes, line end and all
            assert line == (body + end.encode() if isinstance(body, bytes) else body)
            placed.append(first_line + i)
    kept = [lineno for lineno, (body, _) in enumerate(lines, start=1)
            if isinstance(body, bytes) or (body and not body.isspace())]
    assert placed == kept


def test_invalid_utf8_fails_only_its_sentence():
    bad = SIMPLE.replace("phone", "ph\udcffone").encode("utf-8", "surrogateescape")
    data = bad + b"\n" + SIMPLE.replace("s1", "s2").encode("utf-8")
    stats = ReadStats()
    trees = list(read_conllu(io.BytesIO(data), stats=stats))
    assert [t.sentence_id for t in trees] == ["s2"]
    assert stats.skipped == 1
    with pytest.raises(ConlluError, match=r"sentence 1 \(line 3\): not valid UTF-8"):
        list(read_conllu(io.BytesIO(data), on_error="abort"))


def test_conllu_error_survives_pickle():
    err = pickle.loads(pickle.dumps(ConlluError("bad", 3, 7)))
    assert type(err) is ConlluError
    assert (str(err), err.message, err.sentence, err.line) == (
        "sentence 3 (line 7): bad", "bad", 3, 7
    )


# ------------------------------------------------------------ chunk reader


# line-level damage to a CoNLL-U corpus: (kind, where), ``where`` reduced
# modulo the line count
DAMAGE = ("crlf", "space line", "unicode space line", "bad byte", "no final newline",
          "range row", "empty node row", "blank line", "delete")
RANGE_ROW = b"1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_"
EMPTY_NODE_ROW = b"2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_"
# whitespace-only lines as str.isspace() sees them, not only ASCII
UNICODE_SPACES = ("\u3000", "\x85", "\u2028", "\x1c \xa0")


def damaged(data, edits):
    lines = data.split(b"\n")
    for kind, where in edits:
        i = where % len(lines)
        if kind == "crlf":
            lines[i] += b"\r"
        elif kind == "space line":
            lines.insert(i, b" \t")
        elif kind == "unicode space line":
            lines.insert(i, UNICODE_SPACES[where % len(UNICODE_SPACES)].encode("utf-8"))
        elif kind == "bad byte":
            at = where // len(lines) % (len(lines[i]) + 1)
            lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
        elif kind == "no final newline":
            while lines and not lines[-1].strip():
                lines.pop()
        elif kind == "range row":
            lines.insert(i, RANGE_ROW)
        elif kind == "empty node row":
            lines.insert(i, EMPTY_NODE_ROW)
        elif kind == "blank line":
            lines.insert(i, b"")
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
    return b"\n".join(lines)


_corpora = [demo_treebank_path().read_bytes(), demo_ud_path().read_bytes()]
# a UTF-8 byte order mark: dropped where it starts the input, text anywhere else
BOM = b"\xef\xbb\xbf"
_pieces = st.sampled_from([
    b"\n", b"\r\n", b"\n\n", b"\n\r\n", b" ", b"\t", b"\r", b"# c = 1", b"\xff", BOM,
    "\u3000".encode("utf-8"), "\n\u3000\n".encode("utf-8"), "\n\u00a0\n".encode("utf-8"),
    b"1\ta\ta\tX\t_\t_\t0\troot\t_\t_", RANGE_ROW, EMPTY_NODE_ROW,
    b"2\tb\tb\tY\t_\t_\t1\tdep\t_\t_",
])
_inputs = st.one_of(
    st.binary(max_size=300),
    st.lists(_pieces, max_size=40).map(b"".join),
    st.builds(damaged, st.sampled_from(_corpora),
              st.lists(st.tuples(st.sampled_from(DAMAGE), st.integers(0, 10**6)), max_size=8)),
)
CHUNK_TARGETS = (1, 7, 64, 4096, None)  # None: the default, CHUNK_BYTES


def _outcome(blocks, policy):
    """What reading ``blocks`` under ``policy`` gives: the blocks, each tree's
    columns, the error that stopped it and the tallies."""
    blocks, trees, error, stats = list(blocks), [], None, ReadStats()
    try:
        for tree in parse_blocks(blocks, policy, stats):
            trees.append((tree.sentence_id, tree.metadata, tree.forms, tree.lemmas, tree.upos,
                          tree.heads, tree.deprels))
    except ConlluError as exc:
        error = (exc.sentence, exc.line, exc.message)
    return blocks, trees, error, stats


def counted_chunks(source, lines=False):
    """The numbered chunks a pool's parent makes of a path or byte stream:
    CoNLL-U as ``(ordinal, line, bytes)``, or with ``lines`` bridge lines as
    ``(line, bytes)``, each counted, not parsed."""
    if lines:
        return conllu._line_numbered(conllu._cuts(source, conllu._line_end))
    return conllu._numbered(conllu._cuts(source, conllu._block_end))


def chunks_of(source, size):
    """``counted_chunks(source)`` with ``CHUNK_BYTES`` set to ``size``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conllu, "CHUNK_BYTES", size)
        return list(counted_chunks(source))


def _uncalled(*args):
    raise AssertionError("read_conllu counted the sentences of a chunk it splits")


@settings(max_examples=300, deadline=None)
@given(_inputs)
def test_the_chunk_reader_reads_what_the_line_reader_reads(data):
    for policy in ("skip", "abort"):
        expected = _outcome(split_blocks(iter_raw_lines(io.BytesIO(data))), policy)
        for size in CHUNK_TARGETS:
            with pytest.MonkeyPatch.context() as patch:
                if size is not None:
                    patch.setattr(conllu, "CHUNK_BYTES", size)
                chunks = list(counted_chunks(io.BytesIO(data)))
                assert b"".join(chunk for _, _, chunk in chunks) == data
                assert _outcome(chain.from_iterable(map(chunk_blocks, chunks)), policy) == expected
                # read_conllu's own loop numbers each chunk from the blocks it split
                patch.setattr(conllu, "count_blocks", _uncalled)
                stats, trees = ReadStats(), []
                try:
                    trees.extend(read_conllu(io.BytesIO(data), policy, stats))
                except ConlluError as exc:
                    assert (exc.sentence, exc.line, exc.message) == expected[2]
                else:
                    assert expected[2] is None
            assert [tree.sentence_id for tree in trees] == [tree[0] for tree in expected[1]]
            assert stats == expected[3]


@settings(max_examples=300, deadline=None)
@given(_inputs)
def test_the_counted_numbers_of_each_chunk_are_those_its_blocks_give(data):
    blocks = split_blocks(iter_raw_lines(io.BytesIO(data)))
    assert count_blocks(data.removeprefix(BOM)) == sum(1 for _ in blocks)
    for size in CHUNK_TARGETS:
        with pytest.MonkeyPatch.context() as patch:
            if size is not None:
                patch.setattr(conllu, "CHUNK_BYTES", size)
            chunks = list(counted_chunks(io.BytesIO(data)))
        ordinal = line = 1
        for counted in chunks:
            assert counted == (ordinal, line, counted[2])
            ordinal += sum(1 for _ in chunk_blocks(counted))
            line += counted[2].count(b"\n")


class _Reads(io.BytesIO):
    """A byte stream that keeps the size of each read asked of it."""

    def __init__(self, data):
        super().__init__(data)
        self.sizes = []

    def read1(self, size=-1):
        self.sizes.append(size)
        return super().read1(size)


@pytest.mark.parametrize("chunk_bytes", [None, 300, 5000])
def test_the_first_read_is_small_and_each_later_one_twice_the_last(chunk_bytes):
    data = demo_ud_path().read_bytes() * 400
    source = _Reads(data)
    with pytest.MonkeyPatch.context() as patch:
        if chunk_bytes is not None:
            patch.setattr(conllu, "CHUNK_BYTES", chunk_bytes)
        chunks = [chunk for _, _, chunk in counted_chunks(source)]
    largest = chunk_bytes or conllu.CHUNK_BYTES
    first = min(conllu.FIRST_CHUNK_BYTES, largest)
    assert source.sizes[:3] == [first, min(2 * first, largest), min(4 * first, largest)]
    assert all(later == min(2 * size, largest)
               for size, later in zip(source.sizes, source.sizes[1:]))
    assert set(source.sizes[-3:]) == {largest}
    # the first chunk ends at the last blank line of the first read
    assert chunks[0] == data[:data.rindex(b"\n\n", 0, first) + 2]
    assert all(chunk.endswith(b"\n\n") for chunk in chunks[:-1])
    assert b"".join(chunks) == data


def test_every_chunk_but_the_last_ends_past_a_blank_line():
    data = demo_ud_path().read_bytes() * 40
    data = data.replace(b"\n\n", b"\n\r\n", 7)  # a blank line of "\r" also ends a chunk
    chunks = chunks_of(io.BytesIO(data), 300)
    assert len(chunks) > 40
    assert all(chunk.endswith((b"\n\n", b"\n\r\n")) for _, _, chunk in chunks[:-1])
    for (ordinal, line, chunk), (next_ordinal, next_line, _) in zip(chunks, chunks[1:]):
        assert next_line == line + chunk.count(b"\n")
        assert next_ordinal == ordinal + sum(1 for _ in chunk_blocks((ordinal, line, chunk)))


@pytest.mark.parametrize("separator", [b" \n", b"\t \n", b"\r\n", b" \r\n", b"\x0b\x0c\n"])
def test_a_chunk_is_cut_past_a_whitespace_line(separator):
    blocks = demo_ud_path().read_bytes().split(b"\n\n")
    data = (b"\n" + separator).join(block for block in blocks * 40 if block)
    chunks = chunks_of(io.BytesIO(data), 300)
    assert len(chunks) > 40
    assert all(chunk.endswith(b"\n" + separator) for _, _, chunk in chunks[:-1])
    assert b"".join(chunk for _, _, chunk in chunks) == data
    assert (_outcome(chain.from_iterable(map(chunk_blocks, chunks)), "skip")
            == _outcome(split_blocks(iter_raw_lines(io.BytesIO(data))), "skip"))


def test_a_whitespace_line_split_between_two_reads_still_ends_a_chunk():
    first = SIMPLE.rstrip("\n").encode() + b"\n  "  # the first read ends inside the line
    second = SIMPLE.replace("s1", "s2").encode()
    chunks = chunks_of(io.BytesIO(first + b"  \n" + second), len(first))
    assert chunks == [(1, 1, first + b"  \n"), (2, 6, second)]


def test_a_sentence_longer_than_the_chunk_target_is_one_chunk():
    long = b"".join(
        b"%d\tw\tw\tX\t_\t_\t%d\tdep\t_\t_\n" % (i, i - 1) for i in range(1, 2001)
    )
    data = SIMPLE.encode() + long + b"\n" + SIMPLE.replace("s1", "s3").encode()
    chunks = chunks_of(io.BytesIO(data), 64)
    assert [(ordinal, line) for ordinal, line, _ in chunks] == [(1, 1), (2, 6), (3, 2007)]
    assert [len(t) for t in read_conllu(io.BytesIO(data), on_error="abort")] == [3, 2000, 3]


@pytest.mark.parametrize("source", [
    io.BytesIO,
    lambda data: io.StringIO(data.decode("utf-8")),
    lambda data: data.splitlines(keepends=True),
    lambda data: data.decode("utf-8").splitlines(keepends=True),
], ids=["bytes", "text", "byte lines", "text lines"])
def test_one_byte_order_mark_that_starts_the_input_is_dropped(source):
    data = (SIMPLE + SIMPLE.replace("s1", "s2")).encode("utf-8")
    lines = list(iter_raw_lines(source(data)))
    assert list(iter_raw_lines(source(BOM + data))) == lines
    twice = list(iter_raw_lines(source(BOM + BOM + data)))
    assert twice == [(BOM if isinstance(lines[0], bytes) else "\ufeff") + lines[0], *lines[1:]]


def test_a_path_that_starts_with_a_byte_order_mark_reads_as_without_one(tmp_path):
    path = tmp_path / "marked.conllu"
    path.write_bytes(BOM + SIMPLE.encode("utf-8"))
    assert next(iter_raw_lines(path)) == b"# sent_id = s1\n"
    assert [tree.sentence_id for tree in read_conllu(path, on_error="abort")] == ["s1"]


def test_the_chunk_reader_drops_a_byte_order_mark_only_where_the_input_starts():
    data = (SIMPLE + SIMPLE.replace("s1", "s2")).encode("utf-8")
    chunks = chunks_of(io.BytesIO(BOM + data), 8)
    assert [line for _, line, _ in chunks] == [1, 6]
    blocks = chain.from_iterable(map(chunk_blocks, chunks))
    assert [t.sentence_id for t in parse_blocks(blocks, "abort")] == ["s1", "s2"]
    # at the start of a later chunk it is text, so s2's first line is no comment
    later = chunks_of(io.BytesIO(data.replace(b"# sent_id = s2", BOM + b"# sent_id = s2")), 8)
    with pytest.raises(ConlluError, match=r"^sentence 2 \(line 6\): expected 10 columns, got 1$"):
        list(parse_blocks(chain.from_iterable(map(chunk_blocks, later)), "abort"))


def test_paths_and_raw_byte_streams_are_read_in_chunks(tmp_path):
    path = tmp_path / "in.conllu"
    path.write_text(SIMPLE + SIMPLE.replace("s1", "s2"))
    assert [ordinal for ordinal, _, _ in chunks_of(path, 8)] == [1, 2]
    assert [ordinal for ordinal, _, _ in chunks_of(str(path), 8)] == [1, 2]
    with open(path, "rb", buffering=0) as raw:
        assert [t.sentence_id for t in read_conllu(raw)] == ["s1", "s2"]


# ------------------------------------------------------------- line chunks


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=300), st.lists(_pieces, max_size=40).map(b"".join)))
def test_line_chunks_number_their_lines_as_the_line_reader_does(data):
    expected = [(lineno, text.rstrip("\n") if text is not None else None)
                for lineno, text in numbered_lines(io.BytesIO(data))]
    for size in CHUNK_TARGETS:
        with pytest.MonkeyPatch.context() as patch:
            if size is not None:
                patch.setattr(conllu, "CHUNK_BYTES", size)
            chunks = list(counted_chunks(io.BytesIO(data), lines=True))
        assert b"".join(chunk for _, chunk in chunks) == data
        assert all(chunk.endswith(b"\n") for _, chunk in chunks[:-1])
        lines = [(lineno, conllu.decode_line(line))
                 for lineno, line in chain.from_iterable(map(chunk_lines, chunks))]
        # a chunk that ends with a newline adds an empty line after it
        assert [line for line in lines if line[1] != ""] == [
            line for line in expected if line[1] != ""]


def test_line_chunks_are_read_from_paths_and_byte_streams_only(tmp_path):
    path = tmp_path / "in.bridge"
    path.write_bytes(BOM + b"a\tw/X/0:root\n" * 3)
    assert [list(chunk_lines(chunk)) for chunk in counted_chunks(path, lines=True)] == [
        [(1, "a\tw/X/0:root"), (2, "a\tw/X/0:root"), (3, "a\tw/X/0:root"), (4, "")]]


# ----------------------------------------------- the regexes string code replaced

# line ends, ASCII and Unicode whitespace, digits (ASCII and Arabic-Indic),
# the separators of ids and a few other characters
_ODD_TEXT = st.text(st.sampled_from(
    "\n\r \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u0661-.#ab/<>\\019"), max_size=24)


@settings(max_examples=500, deadline=None)
@given(_ODD_TEXT)
def test_an_id_is_a_range_or_an_empty_node_exactly_when_its_regex_matches_all_of_it(raw_id):
    assert conllu._id_pair(raw_id, "-") == bool(_RANGE_ID.fullmatch(raw_id))
    assert conllu._id_pair(raw_id, ".") == bool(_EMPTY_ID.fullmatch(raw_id))


def test_an_id_with_a_trailing_newline_is_no_range():
    # ``match`` let ``$`` match before a final newline, so "1-2\n" was dropped
    # as a range: an id that a line of a library caller's list can hold
    assert _RANGE_ID.match("1-2\n") and _EMPTY_ID.match("1.1\n")
    assert not conllu._id_pair("1-2\n", "-") and not conllu._id_pair("1.1\n", ".")
    row = "1-2\n\tab\t_\t_\t_\t_\t_\t_\t_\t_"
    with pytest.raises(ConlluError, match=r"non-numeric id '1-2\\n'"):
        _parse_block([row, "1\ta\ta\tX\t_\t_\t0\troot\t_\t_"], 1, 1, ReadStats())


@settings(max_examples=500, deadline=None)
@given(_ODD_TEXT.filter(lambda text: "\r" not in text))
def test_a_text_is_split_in_blocks_unless_its_regex_finds_a_whitespace_line(text):
    split = conllu._text_blocks(text, 1)
    assert (split is None) == bool(_SPACE_LINE.search(f"\n{text}\n"))
    if split is not None:  # and the blocks are those the line reader finds
        expected = list(split_blocks(io.StringIO(text)))
        assert list(zip(range(1, len(split[1]) + 1), *split)) == expected


_SPACES = [b" ", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1f", "\x85".encode(),
           "\xa0".encode(), "\u2028".encode()]
_ODD_BYTES = st.one_of(
    st.lists(st.sampled_from([b"\n", *_SPACES, b"1", b"-", b".", b"a", b"\\", b"<"]),
             max_size=30).map(b"".join),
    # lines of whitespace of every kind between lines of other bytes
    st.lists(st.one_of(st.lists(st.sampled_from(_SPACES), max_size=3).map(b"".join),
                       st.sampled_from([b"1\ta", b"# c", b"\xff"])),
             max_size=8).map(b"\n".join),
)


@settings(max_examples=500, deadline=None)
@given(_ODD_BYTES)
def test_a_chunk_is_cut_where_its_regex_matches_from_every_start(data):
    pending = bytearray(data)
    for start in range(len(data) + 1):
        # the lookbehind sees the byte before ``start``
        block = _BLOCK_CUT.match(pending, start)
        assert conllu._block_end(pending, start) == (block.end() if block else 0)
        line = _LINE_CUT.match(pending, start)
        assert conllu._line_end(pending, start) == (line.end() if line else 0)


def test_a_blank_line_may_start_just_past_the_byte_before_start():
    assert _BLOCK_CUT.match(b"ab\n\ncd", 3).end() == 4
    assert conllu._block_end(bytearray(b"ab\n\ncd"), 3) == 4
    assert conllu._block_end(bytearray(b"ab\n\ncd"), 4) == 0
