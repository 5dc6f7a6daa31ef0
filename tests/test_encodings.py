"""Label encodings: encode/decode round trips, repair, the tagger bridge."""

import io
import itertools
import pickle
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treesent import (
    BridgeError,
    BridgeStats,
    DepTree,
    LabelSeq,
    NonProjectiveError,
    Scheme,
    SyntaxLabel,
    decode,
    encode,
    format_tagger_line,
    parse_tagger_output,
    repair,
)
from treesent import encodings
from treesent.encodings import UnreadableFieldError, _parse_field, _propose_heads, format_label
from treesent.tree import TreeError, is_projective, random_projective_tree, random_tree

from test_tree import reference_validate

PHONE = DepTree.build(
    [2, 3, 0],
    forms=["the", "phone", "works"],
    upos=["DET", "NOUN", "VERB"],
    deprels=["det", "nsubj", "root"],
)


def words_of(tree):
    return [(t.form, t.upos) for t in tree.tokens]


# -- encode: frozen examples ------------------------------------------------

def test_rel_offset_labels():
    seq = encode(PHONE, Scheme.REL_OFFSET)
    assert [l.payload for l in seq.labels] == [1, 1, 0]
    assert [l.deprel for l in seq.labels] == ["det", "nsubj", "root"]


def test_rel_pos_labels():
    seq = encode(PHONE, Scheme.REL_POS)
    assert [l.payload for l in seq.labels] == [("NOUN", 1), ("VERB", 1), ("ROOT", 0)]


def test_bracket_labels():
    seq = encode(PHONE, Scheme.BRACKETS)
    assert [l.payload for l in seq.labels] == ["<", "\\<", "\\"]
    assert seq.labels[2].deprel == "root"


def test_bracket_right_arc():
    t = DepTree.build([0, 1], forms=["works", "well"], upos=["VERB", "ADV"],
                      deprels=["root", "advmod"])
    seq = encode(t, Scheme.BRACKETS)
    assert [l.payload for l in seq.labels] == ["/", ">"]


def test_single_token_labels():
    t = DepTree.build([0])
    assert encode(t, Scheme.REL_OFFSET).labels[0].payload == 0
    assert encode(t, Scheme.REL_POS).labels[0].payload == ("ROOT", 0)
    assert encode(t, Scheme.BRACKETS).labels[0].payload == ""


def test_rel_pos_counts_outward_with_distractors():
    # Head is the second NOUN to the right of token 1.
    t = DepTree.build([3, 3, 0], upos=["NOUN", "NOUN", "NOUN"],
                      deprels=["dep", "dep", "root"])
    seq = encode(t, Scheme.REL_POS)
    assert seq.labels[0].payload == ("NOUN", 2)
    assert seq.labels[1].payload == ("NOUN", 1)
    back = decode(seq, words_of(t))
    assert back.tree.heads == t.heads and back.repairs.total == 0


def test_brackets_rejects_crossing_arcs():
    t = DepTree.build([3, 4, 0, 3])
    with pytest.raises(NonProjectiveError, match="crossing arcs"):
        encode(t, Scheme.BRACKETS)


def test_bracket_payload_grammar_enforced():
    with pytest.raises(ValueError, match="payload"):
        LabelSeq((SyntaxLabel(Scheme.BRACKETS, "<\\", "dep"),), Scheme.BRACKETS)
    with pytest.raises(ValueError, match="payload"):
        LabelSeq((SyntaxLabel(Scheme.BRACKETS, "<<", "dep"),), Scheme.BRACKETS)


def test_label_seq_rejects_mixed_schemes():
    off = SyntaxLabel(Scheme.REL_OFFSET, 0, "root")
    pos = SyntaxLabel(Scheme.REL_POS, ("ROOT", 0), "root")
    with pytest.raises(ValueError, match="mixed"):
        LabelSeq((off, pos), Scheme.REL_OFFSET)


# -- decode and round trips -------------------------------------------------

def test_decode_rel_offset_example():
    seq = LabelSeq(
        tuple(SyntaxLabel(Scheme.REL_OFFSET, p, d)
              for p, d in [(1, "det"), (1, "nsubj"), (0, "root")]),
        Scheme.REL_OFFSET,
    )
    got = decode(seq, words_of(PHONE))
    assert got.tree.heads == (2, 3, 0)
    assert got.repairs.total == 0


@pytest.mark.parametrize("scheme", list(Scheme), ids=str)
def test_round_trip_random_trees(scheme):
    for seed in range(300):
        n = 1 + seed % 40
        t = (random_projective_tree(n, seed) if scheme is Scheme.BRACKETS
             else random_tree(n, seed))
        seq = encode(t, scheme)
        back = decode(seq, words_of(t), sentence_id=t.sentence_id)
        assert back.repairs.total == 0, (scheme, t.heads)
        assert back.tree.tokens == t.tokens, (scheme, t.heads)


def test_brackets_round_trip_all_small_projective_trees():
    # Exhaustive over every projective tree with up to 4 tokens, which
    # covers stacked brackets like "\\\\" that the random generator
    # cannot produce.
    checked = 0
    for n in range(1, 5):
        for heads in itertools.product(range(n + 1), repeat=n):
            try:
                t = DepTree.build(list(heads))
            except TreeError:
                continue
            if not is_projective(t):
                continue
            back = decode(encode(t, Scheme.BRACKETS), words_of(t))
            assert back.tree.heads == t.heads and back.repairs.total == 0, heads
            checked += 1
    assert checked == 40  # projective head vectors with n <= 4


def test_brackets_stacked_label_shape():
    t = DepTree.build([3, 3, 0, 3, 3], deprels=["a", "b", "root", "c", "d"])
    seq = encode(t, Scheme.BRACKETS)
    assert [l.payload for l in seq.labels] == ["<", "<", "\\\\//", ">", ">"]


def test_decode_word_count_mismatch():
    seq = encode(PHONE, Scheme.REL_OFFSET)
    with pytest.raises(ValueError, match="words"):
        decode(seq, [("a", "X")])


def test_decode_rejects_empty_upos():
    seq = encode(DepTree.build([0]), Scheme.REL_OFFSET)
    with pytest.raises(TreeError, match="^token 1: empty upos$"):
        decode(seq, [("w", "")])
    with pytest.raises(TreeError, match="^token 2: empty upos$"):
        decode(encode(PHONE, Scheme.REL_POS), [("a", "DET"), ("b", ""), ("c", "")])


def test_encode_labels_pass_validation():
    for scheme in Scheme:
        for seed in range(50):
            seq = encode(random_projective_tree(1 + seed % 30, seed), scheme)
            assert seq == LabelSeq(seq.labels, seq.scheme)


# -- fuzzed label sequences always decode to valid trees --------------------

def _random_label(rng, scheme, n):
    deprel = rng.choice(["dep", "amod", "nsubj", "root"])
    if scheme is Scheme.REL_OFFSET:
        return SyntaxLabel(scheme, rng.randint(-n - 2, n + 2), deprel)
    if scheme is Scheme.REL_POS:
        tag = rng.choice(["NOUN", "VERB", "ADJ", "ROOT", "X"])
        return SyntaxLabel(scheme, (tag, rng.randint(-3, 3)), deprel)
    sym = "\\" * rng.randint(0, 2)
    sym += rng.choice(["", "<"])
    sym += rng.choice(["", ">"])
    sym += "/" * rng.randint(0, 2)
    return SyntaxLabel(scheme, sym, deprel)


@pytest.mark.parametrize("scheme", list(Scheme), ids=str)
def test_fuzzed_labels_decode_to_valid_trees(scheme):
    rng = random.Random(20240 + list(Scheme).index(scheme))
    for _ in range(400):
        n = rng.randint(1, 25)
        seq = LabelSeq(tuple(_random_label(rng, scheme, n) for _ in range(n)), scheme)
        words = [(f"w{i}", rng.choice(["NOUN", "VERB", "ADJ", "X"]))
                 for i in range(1, n + 1)]
        got = decode(seq, words)
        _assert_valid_tree(got.tree)
        assert len(got.tree) == n


def _assert_valid_tree(tree):
    """decode() builds its tree unchecked; it must be one the checks accept."""
    assert isinstance(tree.tokens, tuple)
    reference_validate(tree.tokens)
    checked = DepTree(tree.tokens, sentence_id=tree.sentence_id)
    assert tree == checked
    assert (tree.root_id, tree.children) == (checked.root_id, checked.children)
    assert tree.post_order == checked.post_order


_TAGS = ["NOUN", "VERB", "ADJ", "ROOT", "X"]


@st.composite
def _label_sequences(draw, schemes=tuple(Scheme)):
    scheme = draw(st.sampled_from(schemes))
    n = draw(st.integers(1, 30))
    if scheme is Scheme.REL_OFFSET:
        payloads = st.integers(-n - 3, n + 3)
    elif scheme is Scheme.REL_POS:
        payloads = st.tuples(st.sampled_from(_TAGS), st.integers(-4, 4))
    else:
        payloads = st.builds(
            lambda a, b, c, d: "\\" * a + "<" * b + ">" * c + "/" * d,
            st.integers(0, 3), st.integers(0, 1), st.integers(0, 1), st.integers(0, 3),
        )
    labels = draw(st.lists(payloads, min_size=n, max_size=n))
    seq = LabelSeq(tuple(SyntaxLabel(scheme, p, "dep") for p in labels), scheme)
    tags = draw(st.lists(st.sampled_from(_TAGS), min_size=n, max_size=n))
    return seq, [(f"w{i}", tag) for i, tag in enumerate(tags, start=1)]


@settings(max_examples=400, deadline=None)
@given(_label_sequences())
def test_any_label_sequence_decodes_to_a_valid_tree(case):
    seq, words = case
    got = decode(seq, words, sentence_id="s")
    _assert_valid_tree(got.tree)
    assert got.tree.sentence_id == "s"
    assert [t.upos for t in got.tree.tokens] == [tag for _, tag in words]


def _scan_rel_pos(seq, upos):
    """REL_POS head proposals by counting outward from each token."""
    proposals = []
    for i, lab in enumerate(seq.labels, start=1):
        tag, k = lab.payload
        if tag == "ROOT" and k == 0:
            proposals.append(0)
            continue
        side = range(i + 1, len(upos) + 1) if k > 0 else range(i - 1, 0, -1)
        hits = [j for j in side if upos[j - 1] == tag] if k else []
        proposals.append(hits[abs(k) - 1] if abs(k) <= len(hits) and k else None)
    return proposals


@settings(max_examples=300, deadline=None)
@given(_label_sequences(schemes=(Scheme.REL_POS,)))
def test_rel_pos_proposals_match_outward_scan(case):
    seq, words = case
    upos = [tag for _, tag in words]
    payloads = [lab.payload for lab in seq.labels]
    assert _propose_heads(seq.scheme, payloads, upos) == _scan_rel_pos(seq, upos)


@settings(max_examples=300, deadline=None)
@given(_label_sequences())
def test_bridge_lines_decode_to_valid_trees_and_labels(case):
    seq, words = case
    line = "s\t" + " ".join(
        f"{form}/{tag}/{format_label(lab)}" for (form, tag), lab in zip(words, seq.labels)
    )
    (parsed, got), = parse_tagger_output([line], seq.scheme, on_error="abort")
    assert parsed == LabelSeq(parsed.labels, parsed.scheme)
    assert parsed.labels == seq.labels
    _assert_valid_tree(got.tree)


# -- the bridge field parser against the regex grammar it replaced ------------

_REGEX_REL_OFFSET = re.compile(r"^([+-]?\d+):(.*)$")
_REGEX_REL_POS = re.compile(r"^([^,:]+),([+-]?\d+):(.*)$")
_REGEX_BRACKET_FIELD = re.compile(r"^(.+?)/([^/]+)/([\\<>/]*):([^/]*)$")


def _regex_parse_field(field, scheme):
    """The field parser as regexes, the reference."""
    if scheme is Scheme.BRACKETS:
        m = _REGEX_BRACKET_FIELD.match(field)
        if m is None:
            raise ValueError(f"bad token field {field!r}")
        return m.group(1), m.group(2), SyntaxLabel(scheme, m.group(3), m.group(4))
    parts = field.rsplit("/", 2)
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise ValueError(f"bad token field {field!r}")
    form, upos, raw = parts
    if scheme is Scheme.REL_OFFSET:
        m = _REGEX_REL_OFFSET.match(raw)
        if m is None:
            raise ValueError(f"bad label {raw!r}")
        return form, upos, SyntaxLabel(scheme, int(m.group(1)), m.group(2))
    m = _REGEX_REL_POS.match(raw)
    if m is None:
        raise ValueError(f"bad label {raw!r}")
    return form, upos, SyntaxLabel(scheme, (m.group(1), int(m.group(2))), m.group(3))


def _outcome(parse, field, scheme):
    try:
        return parse(field, scheme)
    except ValueError as exc:
        return ("ValueError", str(exc))


_LABEL_CHARS = "0123456789\u0663+-_ ,:/\n\rNOUNa@"
_BRACKET_CHARS = "\\<>/:a@\n"


@settings(max_examples=1500, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.sampled_from([Scheme.REL_OFFSET, Scheme.REL_POS]),
            st.one_of(
                st.text(_LABEL_CHARS, max_size=14),
                st.text(_LABEL_CHARS, max_size=10).map("w/X/".__add__),
                st.builds(
                    lambda tag, sign, digits, sep, rel: f"w/X/{tag}{sign}{digits}{sep}{rel}",
                    st.sampled_from(["", "NOUN,", ",", "NO:UN,", "NOUN", "\n,"]),
                    st.sampled_from(["", "+", "-", "+-", " "]),
                    st.text("0123456789\u0663_ ", max_size=4),
                    st.sampled_from([":", "", ",", "::"]),
                    st.text("amod:\n\r/", max_size=5),
                ),
            ),
        ),
        st.tuples(
            st.just(Scheme.BRACKETS),
            st.one_of(
                st.text(_BRACKET_CHARS, max_size=14),
                st.text(_BRACKET_CHARS, max_size=10).map("w/X/".__add__),
            ),
        ),
    ),
)
@example((Scheme.REL_OFFSET, "w/X/\u0663:dep"))
@example((Scheme.REL_POS, "w/X/NOUN,-\u0663:dep"))
@example((Scheme.REL_OFFSET, "w/X/+:dep"))
@example((Scheme.REL_OFFSET, "w/X/-:dep"))
@example((Scheme.REL_POS, "w/X/NOUN,+:dep"))
@example((Scheme.REL_OFFSET, "w/X/ 3:dep"))
@example((Scheme.REL_POS, "w/X/NOUN, 3:dep"))
@example((Scheme.REL_OFFSET, "w/X/1_0:dep"))
@example((Scheme.REL_POS, "w/X/NOUN,1_0:dep"))
@example((Scheme.REL_OFFSET, "w/X/3dep"))
@example((Scheme.REL_POS, "w/X/NOUN3:dep"))
@example((Scheme.REL_POS, "w/X/NOUN,3dep"))
@example((Scheme.REL_POS, "w/X/,3:dep"))
@example((Scheme.REL_OFFSET, "w/X/3:de\np"))
@example((Scheme.REL_OFFSET, "w/X/3:dep\n"))
@example((Scheme.REL_OFFSET, "w/X/3:dep\n\n"))
@example((Scheme.REL_OFFSET, "w/X/" + "9" * 5000 + ":dep"))
@example((Scheme.BRACKETS, "a/b/>/\\:r:s"))
@example((Scheme.BRACKETS, "a/<\\/X/>:r"))
def test_field_parser_matches_the_regex_grammar(case):
    scheme, field = case
    expected = _outcome(_regex_parse_field, field, scheme)
    assert _outcome(_parse_field, field, scheme) == expected
    # with a label memo: the first call parses the label, the second finds it
    known = {}
    for _ in range(2):
        assert _outcome(lambda f, s: _parse_field(f, s, known), field, scheme) == expected


@pytest.mark.parametrize("suffix", ["", "@pos"])
@pytest.mark.parametrize(
    "fields,payload",
    [("w/NOUN/<\\:x", "<\\"), ("v/VERB/:root a/b/>/\\:r", ">/\\")],
)
def test_misordered_bracket_symbols_are_malformed(fields, payload, suffix):
    # a/b/>/\:r keeps form "a" and upos "b": the order is checked after the split
    with pytest.raises(BridgeError) as info:
        list(parse_tagger_output([f"s1\t{fields}{suffix}"], Scheme.BRACKETS, on_error="abort"))
    assert str(info.value) == f"line 1: malformed payload {payload!r} for Scheme.BRACKETS"


def test_bad_field_outranks_an_earlier_misordered_payload():
    with pytest.raises(BridgeError, match="^line 1: bad token field 'b/X/zz'$"):
        list(parse_tagger_output(["s1\tw/NOUN/<\\:x b/X/zz"], Scheme.BRACKETS, on_error="abort"))


# -- repair -----------------------------------------------------------------

def test_repair_leaves_good_proposals_alone():
    heads, stats = repair([2, 3, 0], 3)
    assert heads == [2, 3, 0]
    assert stats.total == 0


def test_repair_out_of_range_then_cycle():
    # Token 3 points at itself (out of range), tokens 1 and 2 form a cycle.
    heads, stats = repair([2, 1, 3], 3)
    assert heads == [3, 1, 0]
    assert stats.out_of_range == 1
    assert stats.cycles_broken == 1
    assert stats.extra_roots == 0 and stats.missing_root == 0


def test_repair_multiple_roots_keeps_leftmost():
    heads, stats = repair([0, 0, 0], 3)
    assert heads == [0, 1, 1]
    assert stats.extra_roots == 2
    assert stats.total == 2


def test_repair_no_root_promotes_token_one():
    heads, stats = repair([2, 3, 2], 3)
    assert heads[0] == 0
    assert stats.missing_root == 1
    DepTree.build(heads)


def test_repair_none_sentinel_counts_as_out_of_range():
    heads, stats = repair([None, 1], 2)
    assert heads == [0, 1]
    assert stats.out_of_range == 1


def test_repair_rejects_empty():
    with pytest.raises(ValueError):
        repair([], 0)
    with pytest.raises(ValueError, match="proposals"):
        repair([0, 1], 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(-4, 44)), min_size=1, max_size=40))
def test_repair_total_on_arbitrary_proposals(proposals):
    heads, stats = repair(proposals, len(proposals))
    DepTree.build(heads)  # must validate
    again, stats2 = repair(heads, len(heads))
    assert again == heads
    assert stats2.total == 0


# -- bridge format -----------------------------------------------------------

def test_label_spellings_per_scheme():
    assert format_label(SyntaxLabel(Scheme.REL_OFFSET, -2, "amod")) == "-2:amod"
    assert format_label(SyntaxLabel(Scheme.REL_OFFSET, 0, "root")) == "0:root"
    assert format_label(SyntaxLabel(Scheme.REL_POS, ("NOUN", 1), "det")) == "NOUN,+1:det"
    assert format_label(SyntaxLabel(Scheme.REL_POS, ("ROOT", 0), "root")) == "ROOT,0:root"
    assert format_label(SyntaxLabel(Scheme.BRACKETS, "\\<", "nsubj")) == "\\<:nsubj"


@pytest.mark.parametrize("scheme", list(Scheme), ids=str)
def test_bridge_round_trip(scheme):
    trees = [random_projective_tree(1 + s % 12, s) for s in range(40)]
    lines = [format_tagger_line(t, encode(t, scheme)) for t in trees]
    stats = BridgeStats()
    out = list(parse_tagger_output(lines, scheme, stats=stats))
    assert stats.records == len(trees)
    assert stats.repairs.total == 0
    for t, (seq, result) in zip(trees, out):
        assert seq == encode(t, scheme)
        assert result.tree.tokens == t.tokens
        assert result.tree.sentence_id == t.sentence_id


def test_bridge_forms_with_slash_round_trip():
    t = DepTree.build([2, 0], forms=["4/5", "stars"], upos=["NUM", "NOUN"],
                      deprels=["nummod", "root"])
    for scheme in Scheme:
        line = format_tagger_line(t, encode(t, scheme))
        (seq, result), = parse_tagger_output([line], scheme)
        assert result.tree.forms == ("4/5", "stars"), scheme
        assert result.tree.heads == (2, 0), scheme


def test_bridge_repairs_out_of_range_offset():
    # Token 1 claims a head far beyond the sentence, so it becomes a
    # provisional root and the real root label reattaches to it.
    line = "s1\ta/X/+9:dep b/X/0:root c/X/-1:dep"
    stats = BridgeStats()
    (seq, result), = parse_tagger_output([line], Scheme.REL_OFFSET, stats=stats)
    assert result.repairs.out_of_range == 1
    assert result.repairs.extra_roots == 1
    assert result.tree.heads == (0, 1, 2)


def test_bridge_bad_record_policies():
    lines = ["s1\tnot a record", "s2\ta/X/0:root"]
    stats = BridgeStats()
    out = list(parse_tagger_output(lines, Scheme.REL_OFFSET, stats=stats))
    assert len(out) == 1 and stats.skipped == 1
    with pytest.raises(BridgeError, match="line 1"):
        list(parse_tagger_output(lines, Scheme.REL_OFFSET, on_error="abort"))


_ROOT_LABEL = {Scheme.REL_OFFSET: "0:root", Scheme.REL_POS: "ROOT,0:root", Scheme.BRACKETS: ":root"}


@pytest.mark.parametrize("scheme", list(Scheme), ids=str)
@pytest.mark.parametrize("line", ["s1\tw/X/{}\t", "s1\tw\tx/X/{}", "s1\tw/X/{}\tx"])
def test_a_tab_inside_the_token_fields_is_a_bad_record(scheme, line):
    # decoded, the tab would split a CoNLL-U column in two
    line = line.format(_ROOT_LABEL[scheme])
    stats = BridgeStats()
    assert list(parse_tagger_output([line], scheme, stats=stats)) == []
    assert stats.skipped == 1
    with pytest.raises(BridgeError, match="^line 1: tab inside the token fields$"):
        list(parse_tagger_output([line], scheme, on_error="abort"))


def test_a_tab_does_not_hide_an_earlier_fault():
    with pytest.raises(BridgeError, match="^line 1: bad token field 'bad'$"):
        list(parse_tagger_output(["s1\tw/X/0:root\tx bad"], Scheme.REL_OFFSET, on_error="abort"))


def test_bridge_invalid_utf8_is_a_bad_record():
    lines = [b"s1\ta/X/0:root\n", b"s2\t\xff/X/0:root\n", b"s3\tb/X/0:root\n"]
    stats = BridgeStats()
    out = list(parse_tagger_output(lines, Scheme.REL_OFFSET, stats=stats))
    assert [r.tree.sentence_id for _, r in out] == ["s1", "s3"]
    assert stats.skipped == 1
    with pytest.raises(BridgeError, match="line 2: not valid UTF-8"):
        list(parse_tagger_output(lines, Scheme.REL_OFFSET, on_error="abort"))


def test_bridge_error_survives_pickle():
    err = pickle.loads(pickle.dumps(BridgeError("bad label", 12)))
    assert type(err) is BridgeError
    assert (str(err), err.message, err.line) == ("line 12: bad label", "bad label", 12)


@pytest.mark.parametrize("source", [[], io.StringIO("s1\ta/X/0:root\n"), "no/such/file"],
                         ids=["lines", "stream", "path"])
def test_an_unknown_error_policy_is_rejected_by_the_call_itself(source):
    # nothing is drawn from the result: the call alone raises
    with pytest.raises(ValueError, match="on_error must be 'skip' or 'abort', got 'bogus'"):
        parse_tagger_output(source, Scheme.REL_OFFSET, on_error="bogus")


def test_bridge_empty_stream():
    assert list(parse_tagger_output(io.StringIO(""), Scheme.REL_OFFSET)) == []


# -- the per-call label memo -------------------------------------------------

# good fields of each scheme ('@' inside forms and relations included), then
# fields that fail: misordered bracket symbols, malformed ones
_MEMO_GOOD = {
    Scheme.REL_OFFSET: ["the/DET/+1:det", "phone/NOUN/0:root", "good/ADJ/-1:amod",
                        "a/b/NOUN/+2:x", "e@mail/NOUN/+1:obj", "phone/NOUN/0:root@positive",
                        "r/VERB/+99999999999999999999:obl"],
    Scheme.REL_POS: ["the/DET/NOUN,+1:det", "phone/NOUN/ROOT,0:root", "good/ADJ/NOUN,-1:amod",
                     "e@mail/NOUN/NOUN,+1:obj", "phone/NOUN/ROOT,0:root@positive",
                     "r/VERB/NOUN,-99999999999:obl"],
    Scheme.BRACKETS: ["the/DET/<:det", "phone/NOUN/\\/:root", "good/ADJ/>:amod",
                      "x/X/\\\\<:dep", "k/N/:x", "e@mail/NOUN/<:obj", "good/ADJ/>:amod@neg"],
}
_MEMO_MISORDERED = ["w/NOUN/<\\:x", "v/VERB/>/\\:r"]
_MEMO_MALFORMED = ["bad", "w//0:x", "k/N/X,:x", "@/X/0:root@"]


def _memo_lines(scheme):
    good = st.sampled_from(_MEMO_GOOD[scheme])
    fields = st.one_of(
        good, good, st.sampled_from(_MEMO_MISORDERED), st.sampled_from(_MEMO_MALFORMED)
    )
    return st.lists(
        st.one_of(
            st.builds(
                lambda fields, suffix: "s\t" + " ".join(fields) + suffix,
                st.lists(fields, min_size=1, max_size=5),
                st.sampled_from(["", "", "@positive", "@", "\r"]),
            ),
            st.sampled_from(["", "no tab", "s\t "]),
        ),
        max_size=12,
    )


def _bridge_outcome(lines, scheme, on_error):
    """(pairs, stats, first error) of one parse_tagger_output call."""
    stats = BridgeStats()
    pairs = []
    try:
        for pair in parse_tagger_output(lines, scheme, on_error=on_error, stats=stats):
            pairs.append(pair)
    except BridgeError as exc:
        return pairs, stats, (str(exc), exc.line)
    return pairs, stats, None


def _line_by_line_outcome(lines, scheme, on_error):
    """The same, with each line read by a fresh call at its own line number."""
    pairs, total = [], BridgeStats()
    for index, line in enumerate(lines):
        got, stats, error = _bridge_outcome([""] * index + [line], scheme, on_error)
        pairs += got
        total.records += stats.records
        total.skipped += stats.skipped
        total.repairs = total.repairs + stats.repairs
        if error is not None:
            return pairs, total, error
    return pairs, total, None


@pytest.mark.parametrize("limit", [None, 0, 3], ids=["default", "never", "small"])
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(Scheme)).flatmap(lambda s: st.tuples(st.just(s), _memo_lines(s))),
    st.sampled_from(["skip", "abort"]),
)
# a label remembered from a line that failed is still misordered when it comes back
@example((Scheme.BRACKETS, ["s\tw/NOUN/<\\:x", "s\tthe/DET/<:det w/NOUN/<\\:x"]), "skip")
@example((Scheme.REL_OFFSET, ["s\tbad", "s\tphone/NOUN/0:root@pos", "s\tphone/NOUN/0:root"]), "skip")
def test_memo_reads_a_stream_as_fresh_calls_read_its_lines(limit, case, on_error):
    scheme, lines = case
    with pytest.MonkeyPatch.context() as patch:
        if limit is not None:
            patch.setattr(encodings, "_LABEL_MEMO_LIMIT", limit)
        assert _bridge_outcome(lines, scheme, on_error) == _line_by_line_outcome(
            lines, scheme, on_error
        )


def _counting_labels(patch):
    """Record the arguments of every SyntaxLabel the bridge reader builds."""
    made = []

    def counted(*args):
        made.append(args[1:])
        return SyntaxLabel(*args)

    patch.setattr(encodings, "SyntaxLabel", counted)
    return made


def test_each_distinct_label_is_parsed_once_per_call():
    lines = ["s1\tthe/DET/+1:det phone/NOUN/0:root", "s2\ta/DET/+1:det cat/NOUN/0:root",
             "s3\tbad the/DET/+1:det", "s4\tthis/DET/+1:det"]
    with pytest.MonkeyPatch.context() as patch:
        made = _counting_labels(patch)
        out = list(parse_tagger_output(lines, Scheme.REL_OFFSET))
        assert [result.tree.forms for _, result in out] == [
            ("the", "phone"), ("a", "cat"), ("this",)]
        assert made == [(1, "det"), (0, "root")]
        made.clear()
        list(parse_tagger_output(lines[:1], Scheme.REL_OFFSET))
        assert made == [(1, "det"), (0, "root")]  # no memo across calls


def test_a_full_memo_is_dropped():
    lines = ["s1\ta/X/0:root", "s2\tb/X/0:root", "s3\tc/X/0:root"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encodings, "_LABEL_MEMO_LIMIT", 1)
        made = _counting_labels(patch)
        out = list(parse_tagger_output(lines, Scheme.REL_OFFSET, on_error="abort"))
    assert [result.tree.forms for _, result in out] == [("a",), ("b",), ("c",)]
    # the first line fills the memo; the lines after it parse their labels anew
    assert made == [(0, "root")] * 3


def test_format_rejects_whitespace_forms():
    t = DepTree.build([0], forms=["two words"])
    with pytest.raises(ValueError, match="whitespace"):
        format_tagger_line(t, encode(t, Scheme.REL_OFFSET))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"sentence_id": "a b"}, "sentence id 'a b'"),
        ({"forms": ["the", "go\u2003od"]}, "token 2: form " + repr("go\u2003od")),
        ({"upos": ["DET", "NO UN"]}, "token 1: label 'NO UN,+1:det'"),
        ({"upos": ["D\tET", "NOUN"]}, "token 1: upos 'D\\tET'"),
        ({"deprels": ["am od", "root"]}, "token 1: label 'NOUN,+1:am od'"),
    ],
)
def test_format_names_the_first_part_that_holds_whitespace(change, message):
    columns = {"forms": ["the", "phone"], "upos": ["DET", "NOUN"], "deprels": ["det", "root"]}
    t = DepTree.build([2, 0], **{**columns, **change})
    with pytest.raises(ValueError, match=f"^{re.escape(message)} contains whitespace$"):
        format_tagger_line(t, encode(t, Scheme.REL_POS))


_GOOD_PHONE = {"forms": ["good", "phone"], "upos": ["ADJ", "NOUN"], "deprels": ["amod", "root"]}


@pytest.mark.parametrize(
    "scheme, change, message",
    [
        (Scheme.REL_OFFSET, {"forms": ["good", ""]}, "token 2: field '/NOUN/0:root'"),
        (Scheme.BRACKETS, {"upos": ["ADJ", "NO/UN"]}, "token 2: field 'phone/NO/UN/\\\\:root'"),
        # the head's tag is in its dependent's label, which is read first
        (Scheme.REL_POS, {"upos": ["ADJ", "NO/UN"]}, "token 1: field 'good/ADJ/NO/UN,+1:amod'"),
        (Scheme.REL_POS, {"upos": ["ADJ", "A,B"]}, "token 1: field 'good/ADJ/A,B,+1:amod'"),
        (Scheme.REL_POS, {"upos": ["ADJ", "A:B"]}, "token 1: field 'good/ADJ/A:B,+1:amod'"),
        (Scheme.REL_OFFSET, {"deprels": ["a/b", "root"]}, "token 1: field 'good/ADJ/+1:a/b'"),
        (Scheme.BRACKETS, {"forms": ["a/b", "phone"], "upos": ["<", "NOUN"]},
         "token 1: field 'a/b/</<:amod'"),
    ],
    ids=lambda value: str(value) if isinstance(value, Scheme) else None,
)
def test_format_names_the_first_field_that_would_read_back_wrong(scheme, change, message):
    t = DepTree.build([2, 0], **{**_GOOD_PHONE, **change})
    with pytest.raises(UnreadableFieldError, match=f"^{re.escape(message)} would not read back$"):
        format_tagger_line(t, encode(t, scheme))


@pytest.mark.parametrize(
    "scheme, change",
    [
        (Scheme.REL_OFFSET, {"deprels": ["amod", "ro@ot"]}),
        (Scheme.REL_POS, {"forms": ["good", "a/b/ROOT,0:@x"]}),
    ],
    ids=lambda value: str(value) if isinstance(value, Scheme) else None,
)
def test_format_writes_an_at_in_a_field_as_plain_text(scheme, change):
    t = DepTree.build([2, 0], **{**_GOOD_PHONE, **change})
    seq = encode(t, scheme)
    assert _reads_back(format_tagger_line(t, seq), t, seq)


@pytest.mark.parametrize("scheme", list(Scheme), ids=str)
def test_a_bridge_line_carries_no_sentence_polarity(scheme):
    # a last relation that ends in '@x' encodes and reads back whole
    t = DepTree.build([0, 1], forms=["buy", "phones"], upos=["VERB", "NOUN"],
                      deprels=["root", "obj@x"])
    seq = encode(t, scheme)
    line = format_tagger_line(t, seq)
    assert line.endswith(":obj@x")
    assert _reads_back(line, t, seq)
    # and a last label that ends in '@positive' decodes to that relation
    root = format_label(encode(DepTree.build([0]), scheme).labels[0])
    (parsed, got), = parse_tagger_output([f"s1\tgood/ADJ/{root}@positive"], scheme,
                                         on_error="abort")
    assert got.tree.deprels == ("root@positive",)
    assert parsed.labels[0].deprel == "root@positive"


# -- the bridge writer against per-label references ---------------------------

def _reads_back(line, tree, seq):
    """Whether ``line`` reads back to the labels, forms, UPOS tags, heads and
    relations it was written from."""
    try:
        (parsed, got), = parse_tagger_output([line], seq.scheme, on_error="abort")
    except BridgeError:
        return False
    return (
        parsed.labels == seq.labels
        and (got.tree.forms, got.tree.upos, got.tree.heads) == (tree.forms, tree.upos, tree.heads)
        and got.tree.deprels == tuple(label.deprel for label in seq.labels)
    )


def _reference_line(tree, seq):
    """The bridge line from one ``format_label`` call per token, with every
    character of it checked for whitespace, and then read back."""
    sent_id = tree.sentence_id or "s"
    fields = [f"{form}/{tag}/{format_label(label)}"
              for form, tag, label in zip(tree.forms, tree.upos, seq.labels)]
    if any(c.isspace() for text in (sent_id, *fields) for c in text):
        raise ValueError("whitespace")
    line = sent_id + "\t" + " ".join(fields)
    if not _reads_back(line, tree, seq):
        raise UnreadableFieldError(line)
    return line


def _line_outcome(format_line, tree, seq):
    try:
        return format_line(tree, seq)
    except ValueError as exc:
        return type(exc)


# a few of each kind of whitespace, and the bridge's own separators; the
# separators alone, so that most lines get past the whitespace check; and
# neither, so that the sampled values below are often a line's only fault
_WRITER_ALPHABETS = ("ab/@:,+-0\\<> \t\n\x1f\x85\u00a0\u2003\u3000", "ab/@:,+-0\\<>", "ab")


@st.composite
def _labelled_trees(draw):
    scheme = draw(st.sampled_from(list(Scheme)))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 10_000))
    shape = random_projective_tree(n, seed) if scheme is Scheme.BRACKETS else random_tree(n, seed)
    text = st.text(draw(st.sampled_from(_WRITER_ALPHABETS)), min_size=1, max_size=6)

    def column(*specials):
        # one value in four is special, so that a line often has just one fault
        return st.lists(st.one_of(text, text, text, st.sampled_from(specials)),
                        min_size=n, max_size=n)

    tree = DepTree.build(
        list(shape.heads),
        forms=draw(column("", "a/b", "e@mail")),
        upos=draw(column("NOUN", "NO/UN", "A,B", "A:B", "<")),
        deprels=draw(column("nmod:poss", "ro@ot", "a/b")),
        sentence_id=draw(st.sampled_from(["", "s1", "a b"]) | text),
    )
    return tree, encode(tree, scheme)


@settings(max_examples=600, deadline=None)
@given(_labelled_trees())
# an '@' in a form is plain text, even where the text before it parses as a
# field, and a '/' in a form can be split at before a UPOS of bracket symbols
@example((DepTree.build([0], forms=["e@mail"]), encode(DepTree.build([0]), Scheme.REL_OFFSET)))
@example((DepTree.build([0], forms=["a/b/0:@x"]), encode(DepTree.build([0]), Scheme.REL_OFFSET)))
@example((DepTree.build([2, 0], forms=["a/b", "c"], upos=["<", "X"]),
          encode(DepTree.build([2, 0], upos=["<", "X"]), Scheme.BRACKETS)))
def test_format_tagger_line_matches_the_per_label_reference(case):
    # with the reference, this is the bridge's round-trip property: a line
    # that format_tagger_line writes reads back as written, and one it
    # rejects for anything but whitespace would not have
    tree, seq = case
    got = _line_outcome(format_tagger_line, tree, seq)
    assert got == _line_outcome(_reference_line, tree, seq)


# values that hold the bridge's separators where some scheme reads them back
# wrong, or where the reader must still read them back right
_ONE_FAULT_VALUES = ["", "a/b", "/a", "a/", "<", ">", "\\", "A,B", "A:B", "ro@ot", "root@",
                     "e@mail", "a/b/0:@x", "a/b/ROOT,0:@x", "a/b/\\:@x"]


def _one_fault_cases(scheme):
    """Two-token trees with one value of _ONE_FAULT_VALUES in one column, or
    in the form and the UPOS of one token."""
    good = _GOOD_PHONE
    changes = [{column: [*good[column][:i], value, *good[column][i + 1:]]}
               for column in good for i in range(2) for value in _ONE_FAULT_VALUES]
    changes += [{"forms": [*good["forms"][:i], form, *good["forms"][i + 1:]],
                 "upos": [*good["upos"][:i], tag, *good["upos"][i + 1:]]}
                for i in range(2)
                for form, tag in itertools.product(_ONE_FAULT_VALUES, repeat=2)]
    for change, heads in itertools.product(changes, ([2, 0], [0, 1])):
        if "" in change.get("upos", ()):
            continue  # not a tree
        tree = DepTree.build(heads, **{**good, **change})
        yield tree, encode(tree, scheme)


@pytest.mark.parametrize("scheme", list(Scheme), ids=str)
def test_format_rejects_one_fault_exactly_when_it_would_not_read_back(scheme):
    for tree, seq in _one_fault_cases(scheme):
        got = _line_outcome(format_tagger_line, tree, seq)
        assert got == _line_outcome(_reference_line, tree, seq), (tree, seq)


# -- the encode command's column path against the label API -----------------

def _call_outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of its ValueError."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _column_cases(draw):
    """A tree, projective or not, whose forms may hold '/' or be empty, whose
    UPOS tags may hold ',', ':', '\\' or '<', whose relations may hold '/' and
    whose sentence id may hold whitespace."""
    n = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 10_000))
    shape = draw(st.sampled_from([random_tree, random_projective_tree]))(n, seed)
    text = st.text("ab/,:\\<>@0 ", min_size=1, max_size=5)

    def column(*specials):
        return st.lists(st.one_of(st.sampled_from(["x", "y"]), text, st.sampled_from(specials)),
                        min_size=n, max_size=n)

    return DepTree.build(
        list(shape.heads),
        forms=draw(column("", "a/b", "/", "a/b/0:@x")),
        upos=draw(column("NOUN", "A,B", "A:B", "\\", "<", "NO/UN")),
        deprels=draw(column("nmod:poss", "a/b", "/")),
        sentence_id=draw(st.sampled_from(["", "s1", "a b", "a\tb", "s\u3000"])),
    )


@settings(max_examples=500, deadline=None)
@given(_column_cases())
@example(DepTree.build([2, 0], forms=["a/b", "c"], upos=["<", "X"], sentence_id="s"))
@example(DepTree.build([3, 4, 0, 3], sentence_id="a b"))
def test_the_encode_commands_line_is_format_tagger_line_of_encode(tree):
    # encodings._tagger_line is the line function of the encode command: the
    # same line, or the same error and message, in every scheme; and a line it
    # writes reads back to what decode makes of the labels and words
    words = list(zip(tree.forms, tree.upos))
    for scheme in Scheme:
        line = _call_outcome(encodings._tagger_line, tree, scheme)
        assert line == _call_outcome(lambda: format_tagger_line(tree, encode(tree, scheme)))
        if isinstance(line, str):
            seq = encode(tree, scheme)
            expected = [(seq, decode(LabelSeq(seq.labels, scheme), words, tree.sentence_id or "s"))]
            assert list(parse_tagger_output([line], scheme, on_error="abort")) == expected


def _uncalled(*args, **kwargs):
    raise AssertionError(f"a function the encoder should not call was called with {args!r}")


@pytest.mark.parametrize("scheme", list(Scheme), ids=str)
def test_a_line_without_risky_fields_is_written_without_labels(scheme, monkeypatch):
    tree = DepTree.build([0, 1, 2], forms=["a/b", "good", "phone"], sentence_id="s1")
    expected = format_tagger_line(tree, encode(tree, scheme))
    monkeypatch.setattr(LabelSeq, "_trusted", _uncalled)
    monkeypatch.setattr(encodings, "_check_read_back", _uncalled)
    # a '/' in a form alone reads back: the reader splits at the last two
    assert encodings._tagger_line(tree, scheme) == expected


# each change, and the schemes whose screens send its line to _check_read_back
_RISKY_CHANGES = {
    "empty-form": ({"forms": ["a/b", ""]}, list(Scheme)),
    "slash-form-bracket-upos": ({"forms": ["a/b", "c"], "upos": ["<", "X"]}, [Scheme.BRACKETS]),
    "slash-upos": ({"upos": ["X", "NO/UN"]}, list(Scheme)),
    "comma-upos": ({"upos": ["X", "A,B"]}, [Scheme.REL_POS]),
    "colon-upos": ({"upos": ["X", "A:B"]}, [Scheme.REL_POS]),
    "backslash-upos": ({"upos": ["X", "\\"]}, [Scheme.BRACKETS]),
    "slash-deprel": ({"deprels": ["root", "a/b"]}, list(Scheme)),
}


@pytest.mark.parametrize("change, scheme", [
    pytest.param(change, scheme, id=f"{name}-{scheme.value}")
    for name, (change, schemes) in _RISKY_CHANGES.items() for scheme in schemes])
def test_a_line_with_a_risky_field_is_still_read_back(scheme, change, monkeypatch):
    tree = DepTree.build([0, 1], **change)
    expected = _call_outcome(lambda: format_tagger_line(tree, encode(tree, scheme)))
    checked = []

    def check_read_back(*args):
        checked.append(args)
        return read_back(*args)

    read_back = encodings._check_read_back
    monkeypatch.setattr(encodings, "_check_read_back", check_read_back)
    assert _call_outcome(encodings._tagger_line, tree, scheme) == expected
    assert len(checked) == 1


def _slice_count_rel_pos(tree):
    """REL_POS payloads by counting the head's tag over the slice between."""
    upos = tree.upos
    payloads = []
    for dep, head in enumerate(tree.heads, start=1):
        if head == 0:
            payloads.append(("ROOT", 0))
            continue
        tag = upos[head - 1]
        k = upos[dep:head].count(tag) if head > dep else -upos[head - 1:dep - 1].count(tag)
        payloads.append((tag, k))
    return payloads


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10_000), st.data())
def test_rel_pos_encode_matches_the_slice_count(n, seed, data):
    tags = data.draw(st.lists(st.sampled_from(["NOUN", "VERB", "ADJ"]), min_size=n, max_size=n))
    tree = DepTree.build(list(random_tree(n, seed).heads), upos=tags)
    seq = encode(tree, Scheme.REL_POS)
    assert [label.payload for label in seq.labels] == _slice_count_rel_pos(tree)
    assert [label.deprel for label in seq.labels] == list(tree.deprels)


_bridge_forms = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
).filter(lambda form: not any(c.isspace() for c in form))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(list(Scheme)),
    st.integers(1, 15),
    st.integers(0, 10_000),
    st.data(),
)
def test_encoded_lines_read_back_with_any_forms(scheme, n, seed, data):
    heads = list(random_projective_tree(n, seed).heads)
    forms = data.draw(st.lists(_bridge_forms, min_size=n, max_size=n))
    tree = DepTree.build(heads, forms=forms, sentence_id="s1")
    seq = encode(tree, scheme)
    (parsed, got), = parse_tagger_output([format_tagger_line(tree, seq)], scheme, on_error="abort")
    assert parsed == seq
    assert (got.tree.forms, got.tree.upos, got.tree.heads) == (tree.forms, tree.upos, tree.heads)
    assert got.repairs.total == 0


def test_scheme_parse_spellings():
    assert Scheme.parse("rel_offset") is Scheme.REL_OFFSET
    assert Scheme.parse("BRACKETS") is Scheme.BRACKETS
    with pytest.raises(ValueError):
        Scheme.parse("huffman")


def test_scheme_members_behave_as_the_enum_members_they_were():
    import copy

    assert list(Scheme) == [Scheme.REL_OFFSET, Scheme.REL_POS, Scheme.BRACKETS]
    assert [(s.name, s.value) for s in Scheme] == [
        ("REL_OFFSET", "rel-offset"), ("REL_POS", "rel-pos"), ("BRACKETS", "brackets")]
    assert repr(Scheme.REL_POS) == "<Scheme.REL_POS: 'rel-pos'>"
    assert str(Scheme.BRACKETS) == f"{Scheme.BRACKETS}" == "Scheme.BRACKETS"
    assert Scheme("rel-pos") is Scheme.REL_POS
    with pytest.raises(ValueError, match="'huffman' is not a valid Scheme"):
        Scheme("huffman")
    for scheme in Scheme:
        assert isinstance(scheme, Scheme)
        assert copy.copy(scheme) is scheme and copy.deepcopy(scheme) is scheme
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(scheme, protocol)) is scheme
    assert len({*Scheme, *Scheme}) == 3 and Scheme.REL_OFFSET != "rel-offset"


# -- the regexes that string code replaced, kept as oracles ------------------

_BRACKET_PAYLOAD = re.compile(r"^\\*<?>?/*$")
_WHITESPACE = re.compile(r"\s")
_RISKY_UPOS = {Scheme.REL_OFFSET: re.compile("/"), Scheme.REL_POS: re.compile("[/,:]"),
               Scheme.BRACKETS: re.compile(r"[/\\<>]")}
# line ends, ASCII and Unicode whitespace, digits, bracket symbols and the
# characters a bridge field is split at
_ODD_TEXT = st.text(st.sampled_from(
    "\n\r \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u0661-.\\<>/,:@ab09"), max_size=16)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_ODD_TEXT, st.text(st.sampled_from("\\<>/\n"), max_size=8)))
def test_bracket_symbols_are_in_order_exactly_when_their_regex_matches_all_of_them(symbols):
    # ``fullmatch``: ``match`` let ``$`` match before a final newline
    assert encodings._bracket_symbols_ok(symbols) == bool(_BRACKET_PAYLOAD.fullmatch(symbols))


def test_a_bracket_payload_with_a_trailing_newline_is_malformed():
    assert _BRACKET_PAYLOAD.match(">\n")  # what made LabelSeq accept it
    with pytest.raises(ValueError, match=r"malformed payload '>\\n' for Scheme.BRACKETS"):
        LabelSeq(labels=(SyntaxLabel(Scheme.BRACKETS, ">\n", "root"),), scheme=Scheme.BRACKETS)
    assert LabelSeq((SyntaxLabel(Scheme.BRACKETS, ">", "root"),), Scheme.BRACKETS)


@settings(max_examples=500, deadline=None)
@given(_ODD_TEXT)
def test_a_text_holds_whitespace_exactly_when_its_regex_finds_some(text):
    assert encodings._has_space(text) == bool(_WHITESPACE.search(text))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(Scheme)), _ODD_TEXT)
def test_a_upos_text_is_risky_exactly_when_its_regex_finds_a_risky_character(scheme, upos):
    risky = any(map(upos.__contains__, encodings._RISKY_UPOS[scheme]))
    assert risky == bool(_RISKY_UPOS[scheme].search(upos))
