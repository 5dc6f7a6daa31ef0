"""The command line on arbitrary and damaged input: analyze, aspects, encode
and eval end with exit code 0, 1 or 2 and write only well-formed lines, and
the process pool changes none of what a run prints."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesent import (
    Scheme, demo_gold_path, demo_treebank_path, demo_ud_path, parse_tagger_output,
)
from treesent import conllu
from treesent.cli import main

SCHEMES = ("rel-offset", "rel-pos", "brackets")
COMMANDS = [("analyze",), ("analyze", "--explain"), ("analyze", "--baseline"), ("aspects",),
            *(("encode", "--scheme", scheme) for scheme in SCHEMES)]
DATA_ERROR = re.compile(r"error: sentence \d+ \(line \d+\): [^\n]*\n")


def run(*argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name}"))


# line-level damage: (kind, where), ``where`` reduced modulo the line count
DAMAGE = ("crlf", "whitespace line", "bad byte", "delete", "tab to space")


def damaged(data, edits):
    lines = data.split(b"\n")
    for kind, where in edits:
        i = where % len(lines)
        if kind == "crlf":
            lines[i] += b"\r"
        elif kind == "whitespace line":
            lines.insert(i, b" \t")
        elif kind == "bad byte":
            at = where // len(lines) % (len(lines[i]) + 1)
            lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "tab to space":
            lines[i] = lines[i].replace(b"\t", b" ", 1)
    return b"\n".join(lines)


_edits = st.lists(st.tuples(st.sampled_from(DAMAGE), st.integers(0, 10**6)), max_size=10)


def _damaged_copies(*paths):
    sources = [path.read_bytes() for path in paths]
    return st.builds(damaged, st.sampled_from(sources), _edits)


def _checked(argv, policy, code, out, err):
    """What every run of analyze, aspects and encode ends with, under either policy."""
    if policy == "skip":
        assert code == 0, (argv, err)
        assert all(line.startswith("skipped ") for line in err.splitlines()), (argv, err)
    else:
        assert code in (0, 1), (argv, err)
        assert (err == "") if code == 0 else DATA_ERROR.fullmatch(err), (argv, err)
    if argv[0] == "encode":
        # each line reads back as one sentence
        labels = list(parse_tagger_output(io.StringIO(out), Scheme.parse(argv[2]),
                                          on_error="abort"))
        assert len(labels) == len(out.splitlines())
    else:
        for line in out.splitlines():
            _strict_json(line)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.binary(max_size=300), _damaged_copies(demo_treebank_path(), demo_ud_path())))
def test_sentence_commands_end_cleanly_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "in.conllu"
    path.write_bytes(data)
    for argv in COMMANDS:
        for policy in ("abort", "skip"):
            code, out, err = run(*argv, "--on-error", policy, "-i", path)
            _checked(argv, policy, code, out, err)


@pytest.fixture(scope="module")
def demo_predictions(tmp_path_factory):
    path = tmp_path_factory.mktemp("pred") / "pred.jsonl"
    assert main(["analyze", "-i", str(demo_treebank_path()), "-o", str(path)]) == 0
    return path


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_eval_ends_cleanly_on_any_bytes(tmp_path_factory, demo_predictions, data):
    sides = st.one_of(st.binary(max_size=200),
                      _damaged_copies(demo_gold_path(), demo_predictions))
    folder = tmp_path_factory.mktemp("eval")
    pred, gold = folder / "pred.jsonl", folder / "gold.jsonl"
    pred.write_bytes(data.draw(sides, label="pred"))
    gold.write_bytes(data.draw(sides, label="gold"))
    for policy in ("abort", "skip"):
        code, out, err = run("eval", "--pred", pred, "--gold", gold, "--on-error", policy)
        assert code in (0, 1), err
        if code == 0:
            assert err == ""
            _strict_json(out)  # one indented report
        else:
            assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), err


# the chunk target of the pool runs below: the 192 generated sentences
# of ``pool_corpus`` take 5 chunks, so that two workers start the pool
POOL_CHUNK_BYTES = 8192


@pytest.fixture(scope="module")
def pool_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "pool.conllu"
    assert main(["gen", "--sentences", "192", "--length", "5",
                 "--seed", "11", "--format", "conllu", "-o", str(path)]) == 0
    return path.read_bytes()


@settings(max_examples=30, deadline=None)
@given(argv=st.sampled_from(COMMANDS), policy=st.sampled_from(("abort", "skip")),
       edits=st.lists(st.tuples(st.sampled_from(DAMAGE), st.integers(0, 10**6)),
                      min_size=1, max_size=12))
def test_two_workers_print_what_one_does_on_damaged_input(
    tmp_path_factory, pool_corpus, argv, policy, edits
):
    path = tmp_path_factory.mktemp("pool-fuzz") / "in.conllu"
    data = damaged(pool_corpus, edits)
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conllu, "CHUNK_BYTES", POOL_CHUNK_BYTES)
        assert len(list(conllu._cuts(io.BytesIO(data), conllu._block_end))) > 2
        single = run(*argv, "--on-error", policy, "-i", path, "--workers", 1)
        _checked(argv, policy, *single)
        assert run(*argv, "--on-error", policy, "-i", path, "--workers", 2) == single
