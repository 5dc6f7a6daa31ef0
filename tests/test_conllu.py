"""CoNLL-U reading and writing."""

import io
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treesent import ConlluError, DepTree, ReadStats, dumps_conllu, read_conllu, write_conllu
from treesent.conllu import _parse_block, parse_blocks, split_blocks
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


def test_whitespace_only_lines_end_a_block():
    text = SIMPLE.rstrip("\n") + "\n \t\r\n" + SIMPLE.replace("s1", "s2") + "\u3000\n"
    blocks = list(split_blocks(io.StringIO(text)))
    assert [(ordinal, first_line) for ordinal, first_line, _ in blocks] == [(1, 1), (2, 6)]
    assert len(blocks[1][2]) == 4


# one input line: (text or undecodable bytes, line end); text holds no line end
_text = st.one_of(
    st.sampled_from(["", " ", "\t", " \t ", "\u3000", "# sent_id = a", "1\ta\t_"]),
    st.text(st.characters(blacklist_characters="\r\n"), max_size=6),
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
