"""Lexicon loading, layer shadowing, and shifter classification."""

import io
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesent.assets import demo_lexicon
from treesent.lexicon import (
    ADVERSATIVE,
    INTENSIFIER,
    NEGATOR,
    LexiconError,
    PolarityLexicon,
    Shifter,
    ShifterInventory,
    load_collocations,
    load_lexicon,
    merge_collocations,
)


def lex_from(text, language="en"):
    return load_lexicon(io.StringIO(text), language)


def test_load_minimal_file():
    lex = lex_from("good\tADJ\t3.0\nnot\t\tNEG\nreally\t\tINT:0.5\nbut\t\tADV\n")
    assert len(list(lex.entries())) == 1
    assert lex.lookup("good", "ADJ") == 3.0
    assert lex.classify_shifter("not") == Shifter(NEGATOR)
    assert lex.classify_shifter("really") == Shifter(INTENSIFIER, 0.5)
    assert lex.classify_shifter("but") == Shifter(ADVERSATIVE)
    assert lex.classify_shifter("good") is None
    assert lex.language == "en"


def test_empty_file_is_empty_lexicon():
    lex = lex_from("")
    assert lex.lookup("good") is None
    assert lex.lookup("good", "ADJ") is None
    assert lex.classify_shifter("not") is None
    assert list(lex.entries()) == []


def test_comments_and_blank_lines_skipped():
    lex = lex_from("# header\n\ngood\t\t2.0\n   \n# tail\n")
    assert lex.lookup("good") == 2.0


@pytest.mark.parametrize(
    "row, message",
    [
        ("good\tADJ\t7.0", "outside"),
        ("good\tADJ\t-5.5", "outside"),
        ("barely\t\tINT:-1.0", "must be > -1"),
        ("barely\t\tINT:abc", "bad intensifier strength"),
        ("good\tADJ\tBOOST", "unknown entry spec"),
        ("good\t3.0", "3 tab-separated"),
        ("not\tPART\tNEG", "no UPOS"),
    ],
)
def test_bad_rows_rejected_with_line(row, message):
    with pytest.raises(LexiconError, match=message) as err:
        lex_from(row + "\n")
    assert err.value.line == 1


def test_invalid_utf8_is_a_lexicon_error_with_its_line():
    with pytest.raises(LexiconError, match="not valid UTF-8") as err:
        load_lexicon(io.BytesIO(b"good\t\t3.0\n\xffbad\t\t-3.0\n"), "en")
    assert err.value.line == 2
    with pytest.raises(LexiconError, match="not valid UTF-8") as err:
        load_collocations(io.BytesIO(b"# pairs\nat all\tat_all\nno\xff w\tx\n"))
    assert err.value.line == 3


def test_lexicon_error_survives_pickle():
    err = pickle.loads(pickle.dumps(LexiconError("bad row", 7)))
    assert type(err) is LexiconError
    assert (str(err), err.message, err.line) == ("line 7: bad row", "bad row", 7)
    assert pickle.loads(pickle.dumps(LexiconError("no line"))).line is None


def test_duplicate_key_rejected():
    with pytest.raises(LexiconError, match="duplicate") as err:
        lex_from("good\tADJ\t3.0\ngood\tADJ\t2.0\n")
    assert err.value.line == 2
    # same term under a different filter is a distinct key
    lex = lex_from("good\tADJ\t3.0\ngood\t\t1.0\n")
    assert len(list(lex.entries())) == 2


def test_lookup_is_case_insensitive():
    lex = lex_from("Good\tADJ\t3.0\nNot\t\tNEG\n")
    assert lex.lookup("GOOD", "ADJ") == 3.0
    assert lex.classify_shifter("NOT") == Shifter(NEGATOR)


def test_upos_filter_beats_unconstrained_in_same_layer():
    lex = lex_from("good\t\t1.0\ngood\tADJ\t3.0\n")
    assert lex.lookup("good", "ADJ") == 3.0
    assert lex.lookup("good", "NOUN") == 1.0
    assert lex.lookup("good") == 1.0


def test_overlay_shadows_and_unions():
    base = lex_from("good\t\t3.0")
    domain = lex_from("good\t\t1.0\ncheap\t\t2.0")
    merged = base.overlay(domain)
    assert merged.lookup("good") == 1.0
    assert merged.lookup("cheap") == 2.0
    assert base.lookup("good") == 3.0  # inputs untouched


def test_overlay_falls_back_to_base():
    merged = lex_from("good\t\t3.0").overlay(lex_from("cheap\t\t2.0"))
    assert merged.lookup("good") == 3.0


def test_overlay_topmost_layer_wins_even_when_unconstrained():
    merged = lex_from("good\tADJ\t3.0").overlay(lex_from("good\t\t1.0"))
    assert merged.lookup("good", "ADJ") == 1.0


def test_three_layer_stack():
    stacked = (
        lex_from("x\t\t1.0")
        .overlay(lex_from("x\t\t2.0\ny\t\t1.0"))
        .overlay(lex_from("y\t\t3.0"))
    )
    assert stacked.lookup("x") == 2.0
    assert stacked.lookup("y") == 3.0


def test_overlay_language_mismatch():
    with pytest.raises(LexiconError, match="language mismatch"):
        lex_from("good\t\t1.0").overlay(lex_from("bueno\t\t1.0", language="es"))


def test_overlay_with_empty_layer_changes_nothing():
    # randomized probe comparing every lookup against the plain base
    rng = random.Random(77)
    rows, keys = [], []
    for i in range(60):
        upos = rng.choice(["", "ADJ", "NOUN", "VERB"])
        rows.append(f"word{i}\t{upos}\t{round(rng.uniform(-4.9, 4.9), 2)}")
        keys.append((f"word{i}", upos or None))
    base = lex_from("\n".join(rows))
    merged = base.overlay(lex_from(""))
    probes = []
    for _ in range(100):
        if rng.random() < 0.7:
            term, upos = rng.choice(keys)
        else:
            term, upos = f"miss{rng.randrange(40)}", None
        if rng.random() < 0.3:
            upos = rng.choice([None, "ADJ", "NOUN", "VERB", "X"])
        probes.append((term, upos))
    for term, upos in probes:
        assert merged.lookup(term, upos) == base.lookup(term, upos)
    assert merged.shifters == base.shifters


# The layered semantics, walked layer by layer as the lexicon is documented.
def reference_lookup(layers, lemma, upos):
    lemma = lemma.lower()
    for layer in reversed(layers):
        hit = layer.get((lemma, upos))
        if hit is None and upos is not None:
            hit = layer.get((lemma, None))
        if hit is not None:
            return hit
    return None


def reference_shifter(inventories, lemma):
    lemma = lemma.lower()
    for inventory in reversed(inventories):
        if lemma in inventory.negators:
            return Shifter(NEGATOR)
        if lemma in inventory.intensifiers:
            return Shifter(INTENSIFIER, inventory.intensifiers[lemma])
        if lemma in inventory.adversatives:
            return Shifter(ADVERSATIVE)
    return None


# stored terms are lowercase (construction rejects any other); queries are not
TERMS = ("good", "bad", "nice", "not", "very")
UPOS = (None, "ADJ", "NOUN", "VERB")
QUERIES = TERMS + ("Good", "GOOD", "BAD", "Nice", "NOT", "Very", "vERY", "miss", "")

layer_dicts = st.dictionaries(
    st.tuples(st.sampled_from(TERMS), st.sampled_from(UPOS)),
    st.sampled_from((-5.0, -2.5, -1.0, 0.0, 0.5, 2.0, 4.5)),
    max_size=10,
)
inventories = st.dictionaries(
    st.sampled_from(("not", "very", "but", "hardly", "good")),
    st.one_of(st.sampled_from(("NEG", "ADV")), st.sampled_from((-0.5, 0.25, 0.5, 2.0))),
    max_size=4,
).map(
    lambda kinds: ShifterInventory(
        {lemma for lemma, kind in kinds.items() if kind == "NEG"},
        {lemma: kind for lemma, kind in kinds.items() if not isinstance(kind, str)},
        {lemma for lemma, kind in kinds.items() if kind == "ADV"},
    )
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(layer_dicts, inventories), min_size=2, max_size=5))
def test_compiled_lookup_matches_the_layered_reference(stack):
    # the first pair is the base; each further pair is one overlay
    lexicons = [PolarityLexicon((layer,), shifters) for layer, shifters in stack]
    merged = lexicons[0]
    for domain in lexicons[1:]:
        merged = merged.overlay(domain)
    layers = [layer for layer, _ in stack]
    assert merged.layers == tuple(layers)
    for lemma in QUERIES:
        for upos in UPOS:
            assert merged.lookup(lemma, upos) == reference_lookup(layers, lemma, upos)
        expected = reference_shifter([shifters for _, shifters in stack], lemma)
        assert merged.classify_shifter(lemma) == expected


def test_compiled_tables_stay_out_of_equality_and_repr():
    lex = demo_lexicon("en")
    again = PolarityLexicon(lex.layers, lex.shifters, lex.language, lex.collocations)
    assert again == lex
    for table in ("_valences", "_collocations_after", "_by_lemma"):
        assert table in vars(lex) or table in vars(lex.shifters)
        assert table not in repr(lex)
    assert pickle.loads(pickle.dumps(lex)).lookup("good", "ADJ") == 3.0
    assert lex.with_collocations({}).lookup("good", "ADJ") == 3.0


def test_overlay_merges_shifters_domain_wins():
    base = lex_from("really\t\tINT:0.5\nnot\t\tNEG\nbut\t\tADV")
    domain = lex_from("really\t\tINT:0.9\nnever\t\tNEG")
    merged = base.overlay(domain)
    assert merged.classify_shifter("really") == Shifter(INTENSIFIER, 0.9)
    assert merged.shifters.negators == {"not", "never"}
    assert merged.shifters.adversatives == {"but"}


def test_overlay_reassigns_shifter_class():
    merged = lex_from("hardly\t\tINT:-0.5").overlay(lex_from("hardly\t\tNEG"))
    assert merged.classify_shifter("hardly") == Shifter(NEGATOR)
    assert "hardly" not in merged.shifters.intensifiers


def test_shifter_inventory_disjointness():
    with pytest.raises(LexiconError, match="overlap"):
        ShifterInventory(negators={"no"}, adversatives={"no"})
    with pytest.raises(LexiconError, match="overlap"):
        ShifterInventory(negators={"not"}, intensifiers={"not": 0.5})


def test_shifter_strength_validated_on_construction():
    with pytest.raises(LexiconError, match="> -1"):
        ShifterInventory(intensifiers={"x": -1.5})
    for strength in (4.01, float("inf"), float("nan")):
        with pytest.raises(LexiconError, match=r"<= 4, got"):
            ShifterInventory(intensifiers={"x": strength})
    assert ShifterInventory(intensifiers={"x": 4}).intensifiers == {"x": 4}


@pytest.mark.parametrize("strength", ["1e308", "inf", "4.01", "nan"])
def test_an_intensifier_strength_past_four_is_rejected_with_its_line(strength):
    with pytest.raises(LexiconError) as err:
        lex_from(f"# shifters\nnot\t\tNEG\nvery\t\tINT:{strength}\n")
    assert err.value.line == 3
    assert str(err.value) == (
        f"line 3: intensifier strength must be > -1 and <= 4, got {float(strength)}"
    )


def test_an_intensifier_strength_of_four_loads():
    # the largest strength: it scales a value by 5, the bound of a valence
    lex = lex_from("very\t\tINT:4\n")
    assert lex.classify_shifter("very") == Shifter(INTENSIFIER, 4.0)


def test_direct_construction_validates_valence():
    with pytest.raises(LexiconError, match="outside"):
        PolarityLexicon(layers=({("x", None): 9.0},))
    with pytest.raises(LexiconError, match="language"):
        PolarityLexicon(language="")


def test_direct_construction_rejects_terms_no_lookup_can_reach():
    with pytest.raises(LexiconError, match="^term 'Good' is not lowercase$"):
        PolarityLexicon(layers=({("Good", None): 2.0},))
    with pytest.raises(LexiconError, match="not lowercase"):
        PolarityLexicon(layers=({("good", None): 2.0}, {("GREAT", "ADJ"): 3.0}))
    for shifters in ({"negators": {"Not"}}, {"intensifiers": {"Very": 0.5}},
                     {"adversatives": {"But"}}):
        with pytest.raises(LexiconError, match="^shifter lemma '[A-Z][a-z]+' is not lowercase$"):
            ShifterInventory(**shifters)
    assert lex_from("Good\tADJ\t2.0\nNOT\t\tNEG").lookup("GOOD", "ADJ") == 2.0


def test_direct_construction_rejects_shifters_and_collocations_no_lookup_can_use():
    # "" is what a merged collocation leaves of its second lemma
    for shifters in ({"negators": {""}}, {"intensifiers": {"": 0.5}}, {"adversatives": {""}}):
        with pytest.raises(LexiconError, match="^empty shifter lemma$"):
            ShifterInventory(**shifters)
    # a lemma is lowered and split at whitespace before it is paired
    for pair in (("at",), ("at", "all", "x"), ("at", ""), ("At", "all"), ("at", "ALL"),
                 ("at all", "x"), ("at", "a\tb"), ("at", " all"), "at all", ("at", 1)):
        with pytest.raises(LexiconError, match="is not a pair of lowercase words$"):
            PolarityLexicon(collocations={pair: "at_all"})
    for merged in ("", "at all", " at_all", "at_all\n", None):
        with pytest.raises(LexiconError, match="^bad merged lemma"):
            PolarityLexicon(collocations={("at", "all"): merged})
    lex = PolarityLexicon(collocations={("at", "all"): "At_All"})
    assert merge_collocations(["AT", "all"], lex.collocations) == ["At_All", ""]
    with pytest.raises(LexiconError, match="^bad merged lemma"):
        lex.with_collocations({("at", "all"): "at all"})


def test_demo_english_core_values():
    lex = demo_lexicon("en")
    assert lex.language == "en"
    assert lex.lookup("good", "ADJ") == 3.0
    assert lex.lookup("expensive", "ADJ") == -2.0
    assert lex.lookup("like", "VERB") == 2.0
    assert lex.lookup("acceptable", "ADJ") == 1.0
    assert lex.lookup("camera", "NOUN") is None
    assert lex.lookup("battery", "NOUN") is None
    for lemma in ("not", "no", "n't", "never"):
        assert lex.classify_shifter(lemma) == Shifter(NEGATOR)
    assert lex.classify_shifter("really") == Shifter(INTENSIFIER, 0.5)
    assert lex.classify_shifter("very") == Shifter(INTENSIFIER, 0.5)
    assert lex.classify_shifter("at_all") == Shifter(INTENSIFIER, 0.25)
    assert lex.classify_shifter("but") == Shifter(ADVERSATIVE)
    assert lex.collocations[("at", "all")] == "at_all"


def test_demo_spanish_core_values():
    lex = demo_lexicon("es")
    assert lex.language == "es"
    assert lex.lookup("bueno", "ADJ") == 3.0
    assert lex.classify_shifter("no") == Shifter(NEGATOR)
    assert lex.classify_shifter("nunca") == Shifter(NEGATOR)
    assert lex.classify_shifter("muy") == Shifter(INTENSIFIER, 0.5)
    assert lex.classify_shifter("para_nada") == Shifter(INTENSIFIER, 0.25)
    assert lex.classify_shifter("pero") == Shifter(ADVERSATIVE)
    assert lex.collocations[("para", "nada")] == "para_nada"
    assert lex.collocations[("sin", "embargo")] == "sin_embargo"


def test_demo_lexicon_sizes_and_bounds():
    for language in ("en", "es"):
        lex = demo_lexicon(language)
        entries = list(lex.entries())
        assert 30 <= len(entries) <= 60
        assert all(abs(entry.valence) <= 5.0 for entry in entries)
        assert lex.shifters.negators
        assert lex.shifters.intensifiers
        assert lex.shifters.adversatives


def test_demo_unknown_language():
    with pytest.raises(LexiconError, match="no demo lexicon"):
        demo_lexicon("fr")


def test_load_collocations():
    table = load_collocations(io.StringIO("# c\nat all\tat_all\nsin embargo\tsin_embargo\n"))
    assert table == {("at", "all"): "at_all", ("sin", "embargo"): "sin_embargo"}


@pytest.mark.parametrize(
    "row, message",
    [
        ("at all together\tx", "exactly two tokens"),
        ("at\tx", "exactly two tokens"),
        ("at all", "2 tab-separated"),
        ("at all\ta b", "bad merged lemma"),
    ],
)
def test_collocation_errors(row, message):
    with pytest.raises(LexiconError, match=message):
        load_collocations(io.StringIO(row + "\n"))


def test_collocation_duplicate():
    with pytest.raises(LexiconError, match="duplicate collocation"):
        load_collocations(io.StringIO("at all\tat_all\nAt All\tother\n"))


def test_merge_collocations():
    table = {("at", "all"): "at_all"}
    assert merge_collocations(["not", "at", "all", "expensive"], table) == [
        "not",
        "at_all",
        "",
        "expensive",
    ]
    assert merge_collocations(["At", "All"], table) == ["at_all", ""]
    assert merge_collocations(["at"], table) == ["at"]
    assert merge_collocations([], table) == []


def test_merge_collocations_greedy_left_to_right():
    table = {("a", "b"): "a_b", ("b", "c"): "b_c"}
    assert merge_collocations(["a", "b", "c"], table) == ["a_b", "", "c"]


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("source", [
    lambda text: io.BytesIO(BOM + text.encode("utf-8")),
    lambda text: io.StringIO("\ufeff" + text),
    lambda text: [BOM + line.encode("utf-8") if i == 0 else line.encode("utf-8")
                  for i, line in enumerate(text.splitlines(keepends=True))],
], ids=["bytes", "text", "lines"])
def test_one_leading_byte_order_mark_is_dropped(source):
    lex = load_lexicon(source("good\tADJ\t2.0\n\ufeffbad\tADJ\t-1.0\n"), "en")
    assert lex.lookup("good", "ADJ") == 2.0
    # only the mark that starts the file is one; later ones are text
    assert lex.lookup("\ufeffbad", "ADJ") == -1.0 and lex.lookup("bad", "ADJ") is None
    assert load_collocations(source("at all\tat_all\n")) == {("at", "all"): "at_all"}
    twice = load_lexicon(source("\ufeffgood\tADJ\t2.0\n"), "en")
    assert twice.lookup("\ufeffgood", "ADJ") == 2.0
