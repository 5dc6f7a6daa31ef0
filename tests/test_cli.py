"""End-to-end command line tests, in-process through main(); a closed
stdout is tested in a process of its own."""

import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesent import (
    BridgeError,
    DataError,
    DepTree,
    EvalError,
    NonProjectiveError,
    OpinionError,
    ReadStats,
    Token,
    TreeError,
    demo_gold_path,
    demo_treebank_path,
    demo_ud_path,
    read_conllu,
    write_conllu,
)
from treesent import cli, conllu
from treesent.cli import main

TOL = 1e-9


def run(*argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# ------------------------------------------------------------------ analyze


def test_analyze_demo_corpus_classes(tmp_path):
    out = tmp_path / "out.jsonl"
    assert run("analyze", "-i", demo_treebank_path(), "-o", out) == 0
    records = read_jsonl(out)
    assert [r["sent_id"] for r in records] == ["s1", "s2", "s3"]
    assert [r["class"] for r in records] == ["positive", "negative", "negative"]
    assert all("trace" not in r for r in records)


def test_analyze_emits_target_opinions(tmp_path):
    out = tmp_path / "out.jsonl"
    run("analyze", "-i", demo_treebank_path(), "-o", out)
    s3 = {r["sent_id"]: r for r in read_jsonl(out)}["s3"]
    by_text = {op["text"]: op for op in s3["opinions"]}
    camera = by_text["camera"]
    assert camera["target"] == [7, 7]
    assert camera["polarity"] == "positive"
    assert camera["valence"] == pytest.approx(3.0, abs=TOL)
    battery = by_text["battery life"]
    assert battery["target"] == [11, 12]
    assert battery["polarity"] == "negative"
    assert battery["valence"] == pytest.approx(-3.0, abs=TOL)


def test_analyze_explain_adds_traces(tmp_path):
    out = tmp_path / "out.jsonl"
    run("analyze", "-i", demo_treebank_path(), "-o", out, "--explain")
    for record in read_jsonl(out):
        rules_used = [step[1] for step in record["trace"]]
        assert rules_used[-1] == "AGGREGATE"
        assert "LEXICON" in rules_used


def test_analyze_baseline_cannot_tell_the_pair_apart(tmp_path):
    out = tmp_path / "out.jsonl"
    run("analyze", "-i", demo_treebank_path(), "-o", out, "--baseline")
    records = {r["sent_id"]: r for r in read_jsonl(out)}
    assert records["s1"]["baseline"] is True
    assert records["s1"]["class"] == records["s2"]["class"] == "positive"
    assert records["s1"]["valence"] == pytest.approx(records["s2"]["valence"], abs=TOL)


def test_aspects_records_hold_only_opinions(tmp_path):
    out = tmp_path / "out.jsonl"
    assert run("aspects", "-i", demo_treebank_path(), "-o", out) == 0
    records = read_jsonl(out)
    assert all(set(r) == {"sent_id", "opinions"} for r in records)
    assert any(r["opinions"] for r in records)


def test_analyze_empty_input_is_empty_success(tmp_path):
    empty = tmp_path / "empty.conllu"
    empty.write_text("")
    out = tmp_path / "out.jsonl"
    assert run("analyze", "-i", empty, "-o", out) == 0
    assert out.read_text() == ""


def test_analyze_workers_preserve_order(tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    corpus = tmp_path / "corpus.conllu"
    run("gen", "--sentences", 24, "--length", 7, "--seed", 4, "--format", "conllu", "-o", corpus)
    assert run("analyze", "-i", corpus, "-o", serial) == 0
    assert run("analyze", "-i", corpus, "-o", parallel, "--workers", 3) == 0
    assert serial.read_text() == parallel.read_text()


# The pool tests cut their input into chunks of about POOL_CHUNK_BYTES:
# the POOL_SENTENCES corpus then spans 26 chunks, more than --workers 3
# keeps in flight (2 x 3), so that the pool starts and its window of
# pending chunks moves on.
POOL_SENTENCES = 458
POOL_CHUNK_BYTES = 4096


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(conllu, "CHUNK_BYTES", POOL_CHUNK_BYTES)


def _chunk_starts(path):
    """The ordinal of the first sentence of each chunk the pool cuts ``path`` into."""
    return [ordinal for ordinal, _, _ in conllu.read_chunks(path)]


# (old, new) byte replacements that make one sentence unreadable
BAD_BYTE = (b"\n1\t", b"\n1\t\xff")  # not UTF-8, at the start of token 1's FORM
BAD_HEAD = (b"\t0\troot", b"\tx\troot")


def _damage(data, sentence, defect):
    """CoNLL-U ``data`` with ``defect`` applied once inside one sentence."""
    blocks = data.split(b"\n\n")
    blocks[sentence - 1] = blocks[sentence - 1].replace(*defect, 1)
    return b"\n\n".join(blocks)


def _pool_corpus(tmp_path, damage=()):
    """A generated corpus of POOL_SENTENCES, with ``(sentence, defect)`` pairs applied.

    Each sentence takes 8 lines: ``# sent_id``, 6 tokens and a blank line.
    """
    path = tmp_path / "pool.conllu"
    run("gen", "--sentences", POOL_SENTENCES, "--length", 6, "--seed", 9,
        "--format", "conllu", "-o", path)
    data = path.read_bytes()
    for sentence, defect in damage:
        data = _damage(data, sentence, defect)
    path.write_bytes(data)
    return path


def _per_worker_count(capsys, *argv):
    """(exit code, stdout, stderr) of one command run with 1, 2 and 3 workers."""
    results = []
    for workers in (1, 2, 3):
        code = run(*argv, "--workers", workers)
        results.append((code, *capsys.readouterr()))
    return results


SCHEMES = ("rel-offset", "rel-pos", "brackets")


@pytest.mark.parametrize(
    "argv",
    [("analyze",), ("analyze", "--explain"), ("aspects",), ("analyze", "--baseline"),
     *(("encode", "--scheme", scheme) for scheme in SCHEMES)],
    ids=["analyze", "explain", "aspects", "baseline", *(f"encode-{s}" for s in SCHEMES)],
)
def test_pool_output_matches_one_worker(tmp_path, capsys, small_chunks, argv):
    corpus = _pool_corpus(tmp_path)
    assert len(_chunk_starts(corpus)) > 2 * 3
    single, *pooled = _per_worker_count(capsys, *argv, "-i", corpus)
    assert single[0] == 0
    assert len(single[1].splitlines()) == POOL_SENTENCES
    assert all(result == single for result in pooled)


@pytest.mark.parametrize("separator", [b" ", b"\t\r"])
def test_pool_cuts_input_whose_sentences_end_at_whitespace_lines(
    tmp_path, capsys, small_chunks, separator
):
    corpus = _pool_corpus(tmp_path)
    corpus.write_bytes(corpus.read_bytes().replace(b"\n\n", b"\n" + separator + b"\n"))
    assert len(_chunk_starts(corpus)) > 2 * 3
    single, *pooled = _per_worker_count(capsys, "analyze", "--explain", "-i", corpus)
    assert single[0] == 0
    assert len(single[1].splitlines()) == POOL_SENTENCES
    assert all(result == single for result in pooled)


def test_pool_skips_bad_sentences_on_both_sides_of_a_chunk_boundary(
    tmp_path, capsys, small_chunks
):
    boundary = _chunk_starts(_pool_corpus(tmp_path))[1]
    corpus = _pool_corpus(tmp_path, [(boundary - 1, BAD_HEAD), (boundary, BAD_BYTE)])
    assert boundary in _chunk_starts(corpus)
    single, *pooled = _per_worker_count(capsys, "analyze", "-i", corpus, "--on-error", "skip")
    assert single[0] == 0
    assert len(single[1].splitlines()) == POOL_SENTENCES - 2
    assert single[2] == "skipped 2 unreadable sentences\n"
    assert all(result == single for result in pooled)


# a 4-token sentence whose arcs 3 -> 1 and 4 -> 2 cross
CROSSING_BLOCK = b"".join(
    b"%d\tw\tw\tNOUN\t_\t_\t%d\t%s\t_\t_\n" % (i, head, b"dep" if head else b"root")
    for i, head in enumerate([3, 4, 0, 3], start=1)
).rstrip(b"\n")
SPACED_FORM = (b"\n1\t", b"\n1\tx y")


def _padded(block, like):
    """``block`` after a comment that pads it to the length of ``like``, so
    that putting it in the place of ``like`` moves no chunk cut."""
    width = len(like) - len(block) - len(b"# pad = \n")
    assert width >= 0
    return b"# pad = " + b"x" * width + b"\n" + block


@pytest.mark.parametrize("scheme", SCHEMES)
def test_encode_pool_skips_bad_sentences_on_both_sides_of_a_chunk_boundary(
    tmp_path, capsys, small_chunks, scheme
):
    first, second = _chunk_starts(_pool_corpus(tmp_path))[1:3]
    corpus = _pool_corpus(tmp_path, [(first - 1, SPACED_FORM), (first, BAD_BYTE)])
    blocks = corpus.read_bytes().split(b"\n\n")
    for i in (second - 2, second - 1):  # sentences second - 1 and second
        blocks[i] = _padded(CROSSING_BLOCK, blocks[i])
    corpus.write_bytes(b"\n\n".join(blocks))
    assert {first, second} <= set(_chunk_starts(corpus))
    single, *pooled = _per_worker_count(
        capsys, "encode", "--scheme", scheme, "-i", corpus, "--on-error", "skip"
    )
    crossing = scheme == "brackets"
    assert single[0] == 0
    assert len(single[1].splitlines()) == POOL_SENTENCES - 2 - 2 * crossing
    assert single[2] == (
        "skipped 1 unreadable sentences\n"
        + "skipped 2 non-projective sentences\n" * crossing
        + "skipped 1 sentences with whitespace inside a field\n"
    )
    assert all(result == single for result in pooled)


@pytest.mark.parametrize("command", ["analyze", "encode"])
def test_pool_abort_writes_the_records_before_the_bad_sentence(
    tmp_path, capsys, small_chunks, command
):
    third, fourth = _chunk_starts(_pool_corpus(tmp_path))[2:4]
    bad = third + 5
    corpus = _pool_corpus(tmp_path, [(bad, BAD_BYTE)])
    assert third < bad < fourth  # inside the third chunk
    single, *pooled = _per_worker_count(capsys, command, "-i", corpus)
    line = 8 * (bad - 1) + 2
    assert single[0] == 1
    assert single[2] == f"error: sentence {bad} (line {line}): not valid UTF-8\n"
    assert len(single[1].splitlines()) == bad - 1
    assert all(result == single for result in pooled)


# (change to a token row's columns, the error it gives) per kind of bad row
ROW_DEFECTS = {
    "head": (lambda cols: cols[:6] + [b"x"] + cols[7:], "non-numeric head 'x'"),
    "columns": (lambda cols: cols[:9], "expected 10 columns, got 9"),
    "id": (lambda cols: [b"z"] + cols[1:], "non-numeric id 'z'"),
    "bytes": (lambda cols: cols[:1] + [b"\xff" + cols[1]] + cols[2:], "not valid UTF-8"),
}


@pytest.mark.parametrize("other", ["columns", "id", "bytes"])
@pytest.mark.parametrize("head_first", [True, False], ids=["head-first", "head-second"])
def test_a_block_with_two_bad_rows_fails_at_the_first(tmp_path, capsys, small_chunks,
                                                      other, head_first):
    third = _chunk_starts(_pool_corpus(tmp_path))[2]
    bad = third + 3
    path = _pool_corpus(tmp_path)
    blocks = path.read_bytes().split(b"\n\n")
    rows = blocks[bad - 1].split(b"\n")  # the sent_id comment, then tokens 1-6
    first, second = ("head", other) if head_first else (other, "head")
    for token, kind in ((2, first), (5, second)):
        rows[token] = b"\t".join(ROW_DEFECTS[kind][0](rows[token].split(b"\t")))
    blocks[bad - 1] = b"\n".join(rows)
    path.write_bytes(b"\n\n".join(blocks))
    single, *pooled = _per_worker_count(capsys, "analyze", "-i", path)
    line = 8 * (bad - 1) + 1 + 2
    assert single[0] == 1
    assert single[2] == f"error: sentence {bad} (line {line}): {ROW_DEFECTS[first][1]}\n"
    assert len(single[1].splitlines()) == bad - 1
    assert all(result == single for result in pooled)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_pool_forks_its_workers_and_reaps_them_after_a_run_and_an_abort(
    tmp_path, capsys, monkeypatch, small_chunks
):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    corpus = _pool_corpus(tmp_path)
    for workers in (2, 3):
        forks.clear()
        assert run("analyze", "-i", corpus, "--workers", workers) == 0
        assert forks == [os.getpid()] * workers
        _no_child_left()
    corpus = _pool_corpus(tmp_path, [(100, BAD_BYTE)])
    assert run("analyze", "-i", corpus, "--workers", 2) == 1
    assert capsys.readouterr().err.startswith("error: sentence 100 ")
    _no_child_left()


def test_an_exception_in_a_worker_is_raised_with_its_type(tmp_path, small_chunks):
    def line(tree):
        if tree.sentence_id == "syn-99":
            raise KeyError(tree.sentence_id)
        return tree.sentence_id + "\n"

    job = partial(conllu.parse_blocks, on_error="abort", line=line)
    out = io.StringIO()
    with pytest.raises(KeyError, match="syn-99"):
        cli._write_records(job, _pool_corpus(tmp_path), 2, ReadStats(), out)
    # every line before the failing one, as one process writes them
    assert out.getvalue().splitlines() == [f"syn-{i}" for i in range(99)]
    _no_child_left()


def test_an_input_of_at_most_one_full_chunk_forks_no_worker(tmp_path, capsys, monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(conllu, "CHUNK_BYTES", 4 * conllu.FIRST_CHUNK_BYTES)
    data = _pool_corpus(tmp_path).read_bytes()
    small = tmp_path / "small.conllu"
    small.write_bytes(data[:data.rindex(b"\n\n", 0, conllu.CHUNK_BYTES) + 2])
    assert len(next(conllu.read_chunks(small))[2]) < small.stat().st_size  # chunks, not one
    for path, forked in ((small, []), (tmp_path / "pool.conllu", [os.getpid()] * 2)):
        forks.clear()
        single, pooled = (_run_output(capsys, "analyze", "-i", path, "--workers", workers)
                          for workers in (1, 2))
        assert forks == forked
        assert pooled == single
    _no_child_left()


def _run_output(capsys, *argv):
    return run(*argv), *capsys.readouterr()


def test_the_pool_forks_a_worker_only_when_its_first_chunk_is_sent(
    tmp_path, capsys, monkeypatch, small_chunks
):
    forked, fork_worker = [], cli._fork_worker

    def counted_fork_worker(fn, others):
        forked.append(len(others))  # the earlier workers, whose pipe ends the child closes
        return fork_worker(fn, others)

    monkeypatch.setattr(cli, "_fork_worker", counted_fork_worker)
    corpus = _pool_corpus(tmp_path)
    data = corpus.read_bytes()
    three = tmp_path / "three.conllu"
    three.write_bytes(data[:data.rindex(b"\n\n", 0, 3 * POOL_CHUNK_BYTES - 600) + 2])
    assert len(list(conllu.read_chunks(three))) == 3
    for path, workers in ((three, 3), (corpus, 4)):
        single = _run_output(capsys, "analyze", "-i", path)
        forked.clear()
        assert _run_output(capsys, "analyze", "-i", path, "--workers", 4) == single
        assert forked == list(range(workers))
        _no_child_left()


def _uncalled(*args):
    raise AssertionError("a run that does not fork counted sentences")


@pytest.mark.parametrize("policy", ["skip", "abort"])
@pytest.mark.parametrize("command", ["analyze", "aspects", "encode"])
def test_a_run_that_does_not_fork_counts_no_sentences(
    tmp_path, capsys, monkeypatch, small_chunks, command, policy
):
    # past the first chunk, one unreadable sentence, skipped or named by its
    # ordinal, and after it a sentence that has no sent_id, so its record
    # carries its ordinal
    corpus = _pool_corpus(tmp_path, [(100, BAD_HEAD)])
    data = corpus.read_bytes().replace(b"# sent_id = syn-300\n", b"")
    corpus.write_bytes(data)
    small = tmp_path / "small.conllu"
    small.write_bytes(data[:data.rindex(b"\n\n", 0, conllu.CHUNK_BYTES) + 2])
    command = (command, "--on-error", policy)
    expected = {path: _run_output(capsys, *command, "-i", path) for path in (corpus, small)}
    if policy == "skip":
        assert "s301" in expected[corpus][1]
    else:
        assert expected[corpus][2] == "error: sentence 100 (line 797): non-numeric head 'x'\n"
    counted, count_blocks = [], conllu.count_blocks
    with monkeypatch.context() as patch:
        patch.setattr(conllu, "count_blocks", _uncalled)
        assert _run_output(capsys, *command, "-i", corpus, "--workers", 1) == expected[corpus]
        assert _run_output(capsys, *command, "-i", small, "--workers", 2) == expected[small]
        # the pool's parent parses no chunk, so it counts the sentences of each
        patch.setattr(conllu, "count_blocks", lambda data: counted.append(data) or count_blocks(data))
        assert _run_output(capsys, *command, "-i", corpus, "--workers", 2) == expected[corpus]
    assert counted
    _no_child_left()


class _Calls:
    """An output stream that keeps each call made of it."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(("write", text))

    def flush(self):
        self.calls.append(("flush",))


@pytest.mark.parametrize("workers", [1, 2])
def test_each_chunk_is_written_and_flushed_before_the_next(tmp_path, small_chunks, workers):
    corpus = _pool_corpus(tmp_path)
    job = partial(conllu.parse_blocks, on_error="abort", line=lambda tree: tree.sentence_id + "\n")
    out = _Calls()
    cli._write_records(job, corpus, workers, ReadStats(), out)
    chunks = list(conllu.read_chunks(corpus))
    assert out.calls[1::2] == [("flush",)] * len(chunks)
    written = [call[1] for call in out.calls[::2]]
    assert [text.count("\n") for text in written] == [
        sum(1 for _ in conllu.chunk_blocks(chunk)) for chunk in chunks]
    assert "".join(written).splitlines() == [f"syn-{i}" for i in range(POOL_SENTENCES)]


def test_a_worker_that_dies_ends_the_command_with_one_error_line(
    tmp_path, capsys, monkeypatch, small_chunks
):
    parent, json_line = os.getpid(), cli._json_line

    def dying(to_json, record, tree):
        if os.getpid() != parent and tree.sentence_id == "syn-99":
            os.kill(os.getpid(), signal.SIGKILL)
        return json_line(to_json, record, tree)

    monkeypatch.setattr(cli, "_json_line", dying)
    assert run("analyze", "-i", _pool_corpus(tmp_path), "--workers", 2) == 1
    out, err = capsys.readouterr()
    assert err == "error: a worker process ended before sending its result (killed by signal 9)\n"
    assert len(out.splitlines()) < 99
    _no_child_left()


def test_the_pool_streams_chunks_and_results_larger_than_its_pipes(
    tmp_path, capsys, monkeypatch
):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set here")
    pipe = os.pipe

    def small_pipe():  # the smallest capacity a pipe can drop to: one page
        read_end, write_end = pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        return read_end, write_end

    monkeypatch.setattr(os, "pipe", small_pipe)
    monkeypatch.setattr(conllu, "CHUNK_BYTES", 4 * POOL_CHUNK_BYTES)
    corpus = _pool_corpus(tmp_path)
    assert len(_chunk_starts(corpus)) > 2 * 3

    def stuck(*_):
        raise TimeoutError("the pool made no progress")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)
    try:
        single, *pooled = _per_worker_count(capsys, "analyze", "--explain", "-i", corpus)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert single[0] == 0 and len(single[1]) > 10 * 4096
    assert all(result == single for result in pooled)
    _no_child_left()


# a run whose stdout is closed, which then says whether it left a child process
CLOSED_STDOUT_POOL_RUN = """
import os, sys
from treesent import conllu
from treesent.cli import main
conllu.CHUNK_BYTES = int(sys.argv[2])
code = main(["analyze", "--workers", "2", "-i", sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child left"
except ChildProcessError:
    left = "no child left"
print(code, left, file=sys.stderr)
"""


def test_a_closed_stdout_leaves_no_pool_worker(tmp_path):
    corpus = _pool_corpus(tmp_path)
    env = {**os.environ, "PYTHONUNBUFFERED": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-S", "-c", CLOSED_STDOUT_POOL_RUN, str(corpus),
             str(POOL_CHUNK_BYTES)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"1 no child left\n")


# a run that reads stdin, which then says whether it left a child process
INTERRUPTED_RUN = """
import os, sys
from treesent import conllu
from treesent.cli import main
conllu.CHUNK_BYTES = int(sys.argv[1])
code = main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child left", file=sys.stderr)
except ChildProcessError:
    print("no child left", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_ctrl_c_ends_the_command_with_status_130_and_no_traceback(tmp_path, workers):
    corpus = _pool_corpus(tmp_path)
    env = {**os.environ, "PYTHONUNBUFFERED": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    out, err = tmp_path / "out.jsonl", tmp_path / "err.txt"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        # a session of its own, so that SIGINT goes to its process group as Ctrl-C does
        proc = subprocess.Popen(
            [sys.executable, "-S", "-c", INTERRUPTED_RUN, str(POOL_CHUNK_BYTES),
             "analyze", "--explain", "--workers", str(workers)],
            stdin=subprocess.PIPE, stdout=stdout, stderr=stderr, env=env,
            start_new_session=True,
        )
    try:
        # the whole corpus, and then no end of input: the command waits for more
        proc.stdin.write(corpus.read_bytes())
        proc.stdin.flush()
        for _ in range(600):
            if out.stat().st_size or proc.poll() is not None:
                break
            time.sleep(0.1)
        assert out.stat().st_size, "the command wrote nothing"
        os.killpg(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=60) == 130
    finally:
        proc.stdin.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    stderr = err.read_text()
    assert "Traceback" not in stderr and stderr.endswith("no child left\n"), stderr


@pytest.mark.parametrize("command", ["analyze", "aspects", "encode"])
def test_invalid_utf8_on_stdin_is_a_data_error(capsys, monkeypatch, command):
    data = _damage(demo_treebank_path().read_bytes(), 2, BAD_BYTE)
    line = data[: data.index(b"\xff")].count(b"\n") + 1
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(command) == 1
    out, err = capsys.readouterr()
    assert err == f"error: sentence 2 (line {line}): not valid UTF-8\n"
    assert len(out.splitlines()) == 1  # the record before the bad sentence
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(command, "--on-error", "skip") == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2
    assert "skipped 1 unreadable sentences" in err


def test_invalid_utf8_bridge_line_is_a_data_error(tmp_path, capsys):
    bridge = tmp_path / "ud.bridge"
    assert run("encode", "-i", demo_treebank_path(), "-o", bridge) == 0
    lines = bridge.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"\t", b"\t\xff", 1)
    bridge.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run("decode", "-i", bridge) == 1
    assert "error: line 2: not valid UTF-8" in capsys.readouterr().err
    assert run("decode", "-i", bridge, "--on-error", "skip") == 0
    out, err = capsys.readouterr()
    assert [t.sentence_id for t in read_conllu(out.splitlines())] == ["s1", "s3"]
    assert "decoded 2 sentences" in err and "skipped=1" in err


def test_analyze_rules_file_changes_classes(tmp_path):
    rules = tmp_path / "rules.cfg"
    rules.write_text("neutral_threshold = 100\n")
    out = tmp_path / "out.jsonl"
    run("analyze", "-i", demo_treebank_path(), "-o", out, "--rules", rules)
    assert {r["class"] for r in read_jsonl(out)} == {"neutral"}


# ------------------------------------------------------------ encode/decode


def test_encode_decode_round_trip_is_byte_identical(tmp_path, capsys):
    bridge = tmp_path / "ud.bridge"
    restored = tmp_path / "ud.conllu"
    assert run("encode", "-i", demo_ud_path(), "-o", bridge) == 0
    assert run("decode", "-i", bridge, "-o", restored) == 0
    assert restored.read_bytes() == demo_ud_path().read_bytes()
    assert "repairs total=0" in capsys.readouterr().err


def test_decode_mangled_lines_still_yield_valid_trees(tmp_path, capsys):
    fuzzed = tmp_path / "fuzzed.bridge"
    fuzzed.write_text(
        "f1\ta/NOUN/+30:dep b/NOUN/-9:dep c/NOUN/+4:dep\n"
        "f2\tx/NOUN/+1:dep y/NOUN/+2:dep\n"  # heads past the end, no root
        "f3\tp/NOUN/0:root q/NOUN/0:root r/NOUN/0:root\n"  # three roots
    )
    out = tmp_path / "out.conllu"
    assert run("decode", "-i", fuzzed, "-o", out) == 0
    trees = list(read_conllu(out, on_error="abort"))
    assert [t.sentence_id for t in trees] == ["f1", "f2", "f3"]
    err = capsys.readouterr().err
    assert "decoded 3 sentences" in err
    assert "repairs total=0" not in err


# token fields of every scheme, some with odd bytes in the form, and byte
# pieces that break fields when strung together
_BRIDGE_FIELDS = [
    b"w/NOUN/+1:det", b"w/NOUN/0:root", b"w/VERB/-1:amod", b"w/NOUN/NOUN,+1:det",
    b"w/VERB/ROOT,0:root", b"w/NOUN/VERB,-1:obj", b"w/NOUN/<:det", b"w/VERB/\\/:root",
    b"w/NOUN/>:amod", b"w/NOUN/\\:x", b"w/NOUN/+99999999999999999999:dep",
    b"w/NOUN/NOUN,-99999999999999:x", b"\xc3\xa9/ADJ/</:y", b"a@b/X/0:root", b"w\x00/X/0:root",
    b"w\r/X/0:root", b"4/5/NUM/-1:nummod", b"w/NOUN/<\\:x",
]
_BRIDGE_PIECES = [
    b"\t", b" ", b"\n", b"\r", b"/", b"@", b":", b",", b"\\", b"<", b">", b"#", b"+", b"-",
    b"0", b"9", b"NOUN", b"\xff", b"\xc3", b"\x00",
]
_bridge_field = st.one_of(
    st.sampled_from(_BRIDGE_FIELDS),
    st.lists(
        st.sampled_from(_BRIDGE_PIECES + _BRIDGE_FIELDS), min_size=1, max_size=6
    ).map(b"".join),
)
_bridge_line = st.builds(
    lambda sent_id, fields, end: sent_id + b"\t" + b" ".join(fields) + end,
    st.sampled_from([b"s1", b"s2", b"", b"s\xff", b"# s"]),
    st.lists(_bridge_field, min_size=1, max_size=8),
    st.sampled_from([b"\n", b"\r\n", b"@pos\n", b"@\n", b"\t\n", b""]),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.lists(_bridge_line, max_size=6).map(b"".join)))
def test_decode_ends_cleanly_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "in.bridge"
    path.write_bytes(data)
    for scheme in ("rel-offset", "rel-pos", "brackets"):
        for policy in ("abort", "skip"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run("decode", "--scheme", scheme, "--on-error", policy, "-i", path)
            assert code in (0, 1, 2), (scheme, policy)
            trees = list(read_conllu(io.BytesIO(out.getvalue().encode("utf-8")), on_error="abort"))
            if policy == "skip":
                assert code == 0, err.getvalue()
                decoded = re.match(r"decoded (\d+) sentences", err.getvalue())
                assert decoded is not None and int(decoded[1]) == len(trees)


def _non_projective_file(tmp_path):
    crossing = DepTree.build(
        [3, 4, 0, 3],
        forms=["a", "b", "c", "d"],
        upos=["NOUN"] * 4,
        sentence_id="np-1",
        metadata={"sent_id": "np-1"},
    )
    flat = DepTree.build(
        [0, 1, 1],
        forms=["e", "f", "g"],
        upos=["NOUN"] * 3,
        sentence_id="np-2",
        metadata={"sent_id": "np-2"},
    )
    path = tmp_path / "mixed.conllu"
    write_conllu([crossing, flat], path)
    return path


def test_encode_brackets_rejects_crossing_arcs_under_abort(tmp_path, capsys):
    path = _non_projective_file(tmp_path)
    out = tmp_path / "out.bridge"
    assert run("encode", "-i", path, "-o", out, "--scheme", "brackets") == 1
    assert "error:" in capsys.readouterr().err


def test_encode_brackets_skip_policy_drops_crossing_sentence(tmp_path, capsys):
    path = _non_projective_file(tmp_path)
    out = tmp_path / "out.bridge"
    assert run(
        "encode", "-i", path, "-o", out, "--scheme", "brackets", "--on-error", "skip"
    ) == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == 1 and lines[0].startswith("np-2\t")
    assert "skipped 1 non-projective" in capsys.readouterr().err


_CONLLU_ROW = "1\t{form}\t_\t{upos}\t_\t_\t0\t{deprel}\t_\t_\n"


@pytest.mark.parametrize("scheme", ["rel-offset", "rel-pos", "brackets"])
@pytest.mark.parametrize(
    "row, sent_id, message",
    [
        ({"form": "go od"}, "w2", "token 1: form 'go od'"),
        ({}, "a b", "sentence id 'a b'"),
        ({"upos": "AD J"}, "w2", "token 1: upos 'AD J'"),
    ],
)
def test_whitespace_inside_a_field_is_a_data_error(tmp_path, capsys, scheme, row, sent_id, message):
    rows = [{"form": "good", "upos": "ADJ", "deprel": "root"}] * 3
    rows[1] = {**rows[1], **row}
    path = tmp_path / "spaced.conllu"
    path.write_text("".join(
        f"# sent_id = {sid}\n" + _CONLLU_ROW.format(**fields) + "\n"
        for sid, fields in zip(["w1", sent_id, "w3"], rows)
    ))
    out = tmp_path / "out.bridge"
    assert run("encode", "--scheme", scheme, "-i", path, "-o", out) == 1
    assert capsys.readouterr().err == f"error: sentence 2 (line 4): {message} contains whitespace\n"
    assert [line.split("\t")[0] for line in out.read_text().splitlines()] == ["w1"]
    assert run("encode", "--scheme", scheme, "-i", path, "-o", out, "--on-error", "skip") == 0
    assert capsys.readouterr().err == "skipped 1 sentences with whitespace inside a field\n"
    assert [line.split("\t")[0] for line in out.read_text().splitlines()] == ["w1", "w3"]


@pytest.mark.parametrize(
    "scheme, row, message",
    [
        ("rel-offset", {"form": ""}, "token 1: field '/ADJ/0:root' would not read back"),
        ("brackets", {"form": ""}, "token 1: field '/ADJ/:root' would not read back"),
        ("rel-pos", {"upos": "NO/UN"},
         "token 1: field 'good/NO/UN/ROOT,0:root' would not read back"),
        ("rel-offset", {"deprel": "ro@ot"},
         "token 1: field 'good/ADJ/0:ro@ot' would not read back"),
    ],
)
def test_a_field_that_would_read_back_wrong_is_a_data_error(tmp_path, capsys, scheme, row, message):
    rows = [{"form": "good", "upos": "ADJ", "deprel": "root"}] * 3
    rows[1] = {**rows[1], **row}
    path = tmp_path / "odd.conllu"
    path.write_text("".join(
        f"# sent_id = w{i}\n" + _CONLLU_ROW.format(**fields) + "\n"
        for i, fields in enumerate(rows, start=1)
    ))
    out = tmp_path / "out.bridge"
    assert run("encode", "--scheme", scheme, "-i", path, "-o", out) == 1
    assert capsys.readouterr().err == f"error: sentence 2 (line 4): {message}\n"
    assert [line.split("\t")[0] for line in out.read_text().splitlines()] == ["w1"]
    assert run("encode", "--scheme", scheme, "-i", path, "-o", out, "--on-error", "skip") == 0
    assert capsys.readouterr().err == (
        "skipped 1 sentences with a field that would read back wrong\n"
    )
    assert [line.split("\t")[0] for line in out.read_text().splitlines()] == ["w1", "w3"]


def test_whitespace_inside_a_relation_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "spaced.conllu"
    path.write_text(
        "1\tthe\t_\tDET\t_\t_\t2\tam od\t_\t_\n2\tcat\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
    )
    assert run("encode", "-i", path) == 1
    assert capsys.readouterr().err == (
        "error: sentence 1 (line 1): token 1: label '+1:am od' contains whitespace\n"
    )


def test_crossing_arcs_are_reported_with_their_sentence(tmp_path, capsys):
    path = _non_projective_file(tmp_path)
    assert run("encode", "-i", path, "--scheme", "brackets") == 1
    assert capsys.readouterr().err == (
        "error: sentence 1 (line 1): crossing arcs: head 3 -> dependent 1 and head 4 -> dependent 2\n"
    )


# ---------------------------------------------------------------------- eval


def test_eval_gold_against_itself(tmp_path):
    out = tmp_path / "report.json"
    assert run("eval", "--pred", demo_gold_path(), "--gold", demo_gold_path(), "-o", out) == 0
    report = json.loads(out.read_text())
    assert report["sentences"] == 3
    assert report["opinions"] == 2
    assert report["conversion_coverage"] == 1.0
    assert report["sentence"]["accuracy"] == 1.0
    assert report["targets"]["exact"]["f1"] == 1.0
    assert report["targets"]["overlap"]["f1"] == 1.0
    assert "parse" not in report


def _offsets(forms):
    spans, cursor = [], 0
    for form in forms:
        spans.append((cursor, cursor + len(form)))
        cursor += len(form) + 1
    return spans


def _gold_record(sid, forms, upos, cls=None, opinions=None, parse=None):
    spans = _offsets(forms)
    record = {
        "sent_id": sid,
        "text": " ".join(forms),
        "tokens": [
            {"form": f, "upos": u, "start": s, "end": e}
            for f, u, (s, e) in zip(forms, upos, spans)
        ],
    }
    if cls is not None:
        record["class"] = cls
    if opinions is not None:
        record["opinions"] = [
            {
                "expression": list(spans[exp - 1][:1]) + [spans[exp - 1][1]],
                "target": [spans[t_first - 1][0], spans[t_last - 1][1]],
                "polarity": polarity,
            }
            for exp, t_first, t_last, polarity in opinions
        ]
    if parse is not None:
        record["parse"] = {"heads": parse[0], "deprels": parse[1]}
    return record


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_eval_perfect_run_scores_one_everywhere(tmp_path):
    forms = ["box", "works", "fine"]
    upos = ["NOUN", "VERB", "ADJ"]
    parse = ([2, 0, 2], ["nsubj", "root", "advmod"])
    gold = tmp_path / "gold.jsonl"
    _write_jsonl(
        gold,
        [
            _gold_record("g1", forms, upos, cls="positive",
                         opinions=[(3, 1, 1, "positive")], parse=parse),
            _gold_record("g2", forms, upos, cls="negative",
                         opinions=[(3, 1, 1, "negative")], parse=parse),
            _gold_record("g3", forms, upos, cls="neutral", opinions=[], parse=parse),
        ],
    )
    parses = tmp_path / "pred.conllu"
    trees = [
        DepTree.build(parse[0], deprels=parse[1], forms=forms, upos=upos,
                      sentence_id=sid, metadata={"sent_id": sid})
        for sid in ("g1", "g2", "g3")
    ]
    write_conllu(trees, parses)
    out = tmp_path / "report.json"
    code = run("eval", "--pred", gold, "--gold", gold, "--pred-parse", parses, "-o", out)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["sentence"]["accuracy"] == 1.0
    assert report["sentence"]["macro_f1"] == pytest.approx(1.0, abs=TOL)
    for label in ("positive", "negative", "neutral"):
        assert report["sentence"]["per_class"][label]["f1"] == 1.0
    for mode in ("exact", "overlap"):
        assert report["targets"][mode]["precision"] == 1.0
        assert report["targets"][mode]["recall"] == 1.0
        assert report["targets"][mode]["f1"] == 1.0
    assert report["parse"]["uas"] == 1.0
    assert report["parse"]["las"] == 1.0
    assert report["conversion_coverage"] == 1.0


def test_eval_worked_arithmetic_end_to_end(tmp_path):
    forms, upos = ["ok"], ["ADJ"]
    gold = tmp_path / "gold.jsonl"
    _write_jsonl(
        gold,
        [
            _gold_record("g1", forms, upos, cls="positive"),
            _gold_record("g2", forms, upos, cls="negative"),
            _gold_record("g3", forms, upos, cls="negative"),
        ],
    )
    pred = tmp_path / "pred.jsonl"
    _write_jsonl(
        pred,
        [
            {"sent_id": "g1", "class": "positive"},
            {"sent_id": "g2", "class": "positive"},
            {"sent_id": "g3", "class": "negative"},
        ],
    )
    out = tmp_path / "report.json"
    assert run("eval", "--pred", pred, "--gold", gold, "-o", out) == 0
    report = json.loads(out.read_text())
    assert report["sentence"]["accuracy"] == pytest.approx(2 / 3, abs=TOL)
    assert report["sentence"]["macro_f1"] == pytest.approx(4 / 9, abs=TOL)
    assert report["sentence"]["per_class"]["positive"]["f1"] == pytest.approx(2 / 3, abs=TOL)
    assert "targets" not in report


def test_eval_missing_files_are_config_errors(tmp_path, capsys):
    assert run("eval", "--pred", tmp_path / "no.jsonl", "--gold", demo_gold_path()) == 2
    assert run("eval", "--pred", demo_gold_path(), "--gold", tmp_path / "no.jsonl") == 2
    assert "config error" in capsys.readouterr().err


def test_eval_missing_prediction_abort_vs_skip(tmp_path):
    gold = tmp_path / "gold.jsonl"
    _write_jsonl(
        gold,
        [
            _gold_record("g1", ["ok"], ["ADJ"], cls="positive"),
            _gold_record("g2", ["ok"], ["ADJ"], cls="negative"),
        ],
    )
    pred = tmp_path / "pred.jsonl"
    _write_jsonl(pred, [{"sent_id": "g1", "class": "positive"}])
    assert run("eval", "--pred", pred, "--gold", gold) == 1
    out = tmp_path / "report.json"
    assert run("eval", "--pred", pred, "--gold", gold, "--on-error", "skip", "-o", out) == 0
    assert json.loads(out.read_text())["sentence"]["accuracy"] == 1.0


# ------------------------------------------------------------------ bench/gen


def test_gen_bridge_is_deterministic(tmp_path):
    a, b = tmp_path / "a.bridge", tmp_path / "b.bridge"
    assert run("gen", "--sentences", 40, "--length", 9, "--seed", 6, "-o", a) == 0
    assert run("gen", "--sentences", 40, "--length", 9, "--seed", 6, "-o", b) == 0
    assert a.read_text() == b.read_text()
    assert len(a.read_text().splitlines()) == 40


def test_gen_conllu_parses_cleanly(tmp_path):
    out = tmp_path / "syn.conllu"
    assert run("gen", "--sentences", 12, "--length", 5, "--format", "conllu", "-o", out) == 0
    trees = list(read_conllu(out, on_error="abort"))
    assert len(trees) == 12
    assert all(len(t) == 5 for t in trees)


def _small_corpus_warning(sentences):
    return (f"warning: benchmark corpus has {sentences} sentences; "
            "results below 1000 are noisy\n")


def test_bench_cli_reports_structure(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run("bench", "--sentences", 60, "--length", 6, "--warmup", 5, "-o", out)
    assert code == 0
    assert capsys.readouterr().err == _small_corpus_warning(60)
    report = json.loads(out.read_text())
    assert report["sentences"] == 60
    assert report["repairs"] == 0
    assert set(report["time"]) == {"read", "decode", "rules", "total"}
    assert report["sentences_per_sec"] > 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bench", "--sentences", 0), "corpus size must be >= 1, got 0"),
        (("gen", "--length", 0), "sentence length must be >= 1, got 0"),
        (("gen", "--length", 0, "--format", "conllu"), "sentence length must be >= 1, got 0"),
    ],
)
def test_bad_bench_and_gen_parameters_are_config_errors(tmp_path, capsys, argv, message):
    assert run(*argv, "-o", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("fmt", ["bridge", "conllu"])
@pytest.mark.parametrize("count", [0, -3])
def test_gen_rejects_a_corpus_size_below_one_in_both_formats(tmp_path, capsys, fmt, count):
    assert run("gen", "--sentences", count, "--format", fmt, "-o", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: corpus size must be >= 1, got {count}\n"


@pytest.mark.parametrize("fmt", ["bridge", "conllu"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (("--sentences", 0), "corpus size must be >= 1, got 0"),
        (("--length", 0), "sentence length must be >= 1, got 0"),
    ],
)
def test_gen_leaves_an_existing_output_file_alone_when_its_parameters_are_bad(
    tmp_path, capsys, fmt, flags, message
):
    keep = tmp_path / "keep.txt"
    keep.write_bytes(b"earlier corpus\n\xff\n")
    assert run("gen", *flags, "--format", fmt, "-o", keep) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert keep.read_bytes() == b"earlier corpus\n\xff\n"


def test_bench_cli_accepts_file_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.bridge"
    run("gen", "--sentences", 30, "--length", 6, "-o", corpus)
    out = tmp_path / "report.json"
    assert run("bench", "-i", corpus, "-o", out) == 0
    assert capsys.readouterr().err == _small_corpus_warning(30)
    assert json.loads(out.read_text())["sentences"] == 30


# A sentence whose score overflows a float under a lexicon that loads:
# "very" has the largest strength a lexicon allows (it scales by 5), and
# 441 of them on "good" make 3 * 5**441, past the largest float.
OVERFLOW_LEXICON = "good\t\t3.0\nvery\t\tINT:4\n"
OVERFLOW_INTENSIFIERS = 441
OVERFLOW_BLOCK = b"# sent_id = overflow\n" + b"".join(
    b"%d\tvery\tvery\tADV\t_\t_\t%d\tadvmod\t_\t_\n" % (i, OVERFLOW_INTENSIFIERS + 1)
    for i in range(1, OVERFLOW_INTENSIFIERS + 1)
) + b"%d\tgood\tgood\tADJ\t_\t_\t0\troot\t_\t_" % (OVERFLOW_INTENSIFIERS + 1)


def _strict_json(line):
    return json.loads(line, parse_constant=lambda name: pytest.fail(f"bare {name}"))


@pytest.mark.parametrize("explain", [(), ("--explain",)], ids=["plain", "explain"])
def test_non_finite_score_is_a_data_error_on_any_worker_count(
    tmp_path, capsys, small_chunks, explain
):
    corpus = _pool_corpus(tmp_path)
    bad = _chunk_starts(corpus)[1] + 2  # the third sentence of the second chunk
    blocks = corpus.read_bytes().split(b"\n\n")
    blocks[bad - 1] = OVERFLOW_BLOCK
    corpus.write_bytes(b"\n\n".join(blocks))
    lexicon = tmp_path / "overflow.tsv"
    lexicon.write_text(OVERFLOW_LEXICON)
    argv = ("analyze", *explain, "-i", corpus, "--lexicon", lexicon)

    single, *pooled = _per_worker_count(capsys, *argv)
    assert single[0] == 1
    line = 8 * (bad - 1) + 1
    assert single[2] == f"error: sentence {bad} (line {line}): score is not a finite number\n"
    assert len(single[1].splitlines()) == bad - 1
    assert all(result == single for result in pooled)

    single, *pooled = _per_worker_count(capsys, *argv, "--on-error", "skip")
    assert single[0] == 0
    assert single[2] == "skipped 1 unreadable sentences\n"
    records = [_strict_json(line) for line in single[1].splitlines()]
    assert len(records) == POOL_SENTENCES - 1
    assert "overflow" not in {record["sent_id"] for record in records}
    assert all(result == single for result in pooled)


def test_finite_scores_under_a_large_intensifier_still_print(tmp_path, capsys):
    lexicon = tmp_path / "big.tsv"
    lexicon.write_text(OVERFLOW_LEXICON)
    corpus = tmp_path / "one.conllu"
    corpus.write_bytes(OVERFLOW_BLOCK.replace(b"1\tvery\tvery", b"1\tquite\tquite", 1) + b"\n\n")
    assert run("analyze", "-i", corpus, "--lexicon", lexicon) == 0
    record = _strict_json(capsys.readouterr().out)
    expected = 3.0
    for _ in range(OVERFLOW_INTENSIFIERS - 1):
        expected *= 5.0
    assert record["valence"] == expected > 1e307


@pytest.mark.parametrize("strength", ["1e308", "inf"])
def test_an_intensifier_past_its_bound_is_a_config_error(tmp_path, capsys, strength):
    lexicon = tmp_path / "big.tsv"
    lexicon.write_text(f"good\t\t3.0\nvery\t\tINT:{strength}\n")
    assert run("analyze", "-i", demo_treebank_path(), "--lexicon", lexicon) == 2
    assert capsys.readouterr() == ("", (
        "config error: lexicon: line 2: intensifier strength must be > -1 and <= 4, "
        f"got {float(strength)}\n"
    ))


@pytest.mark.parametrize("weights", ["inf, 1", "1e308, 1e308"])
def test_an_adversative_weight_past_its_bound_is_a_config_error(tmp_path, capsys, weights):
    rules = tmp_path / "rules.cfg"
    rules.write_text(f"adversative_weights = {weights}\n")
    assert run("analyze", "-i", demo_treebank_path(), "--rules", rules) == 2
    expected = tuple(float(w) for w in weights.split(","))
    assert capsys.readouterr() == ("", (
        f"config error: rule config: line 1: adversative_weights must be in [0, 5], "
        f"got {expected}\n"
    ))


def _bad_utf8(path, text, line):
    """Write ``text`` to ``path`` with a 0xff byte at the start of line ``line``."""
    rows = text.encode("utf-8").splitlines(keepends=True)
    rows[line - 1] = b"\xff" + rows[line - 1]
    path.write_bytes(b"".join(rows))
    return path


@pytest.mark.parametrize("flag", ["--lexicon", "--domain-lexicon"])
def test_invalid_utf8_lexicon_is_a_config_error(tmp_path, capsys, flag):
    lexicon = _bad_utf8(tmp_path / "lex.tsv", "# rows\ngood\t\t3.0\nbad\t\t-3.0\n", 3)
    assert run("analyze", "-i", demo_treebank_path(), flag, lexicon) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: lexicon: line 3: not valid UTF-8\n"


def test_invalid_utf8_rules_file_is_a_config_error(tmp_path, capsys):
    rules = _bad_utf8(tmp_path / "rules.cfg", "negation_shift = 4\nnegation_cap = 5\n", 2)
    assert run("analyze", "-i", demo_treebank_path(), "--rules", rules) == 2
    assert capsys.readouterr().err == "config error: rule config: line 2: not valid UTF-8\n"


def test_invalid_utf8_config_file_is_a_config_error(tmp_path, capsys):
    config = _bad_utf8(tmp_path / "run.cfg", "language = en\nseed = 3\n", 2)
    assert run("analyze", "--config", config, "-i", demo_treebank_path()) == 2
    assert capsys.readouterr().err == f"config error: {config}:2: not valid UTF-8\n"


def test_invalid_utf8_gold_file_is_a_data_error(tmp_path, capsys):
    gold = _bad_utf8(tmp_path / "gold.jsonl", demo_gold_path().read_text(encoding="utf-8"), 2)
    assert run("eval", "--pred", demo_gold_path(), "--gold", gold) == 1
    assert capsys.readouterr().err == "error: line 2: not valid UTF-8\n"


@pytest.mark.parametrize("shape", [{"tokens": 5}, {"opinions": 5}, {"opinions": [1]}])
def test_gold_record_of_the_wrong_shape_is_a_data_error(tmp_path, capsys, shape):
    record = {"sent_id": "a", "text": "ab", "class": "positive",
              "tokens": [{"form": "ab", "upos": "X", "start": 0, "end": 2}], **shape}
    gold = tmp_path / "gold.jsonl"
    _write_jsonl(gold, [record])
    assert run("eval", "--pred", gold, "--gold", gold) == 1
    assert capsys.readouterr().err.startswith("error: line 1: record a: ")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"opinions": [{"expression": [True, 2.9], "polarity": "positive"}]},
         "opinion 0: spans must be pairs of integers"),
        ({"opinions": [{"expression": [0, 2], "target": [3.5, 10], "polarity": "positive"}]},
         "opinion 0: spans must be pairs of integers"),
        ({"tokens": [{"form": "ab", "upos": "X", "start": 5.9, "end": 7}]}, "bad token row"),
        ({"tokens": [{"form": "ab", "upos": "X", "start": "5", "end": 7}]}, "bad token row"),
        ({"tokens": [{"form": "ab", "upos": "X", "start": 0, "end": True}]}, "bad token row"),
    ],
)
def test_gold_offsets_that_are_not_integers_are_data_errors(tmp_path, capsys, change, message):
    record = {"sent_id": "a", "text": "ab", "class": "positive",
              "tokens": [{"form": "ab", "upos": "X", "start": 0, "end": 2}], **change}
    gold = tmp_path / "gold.jsonl"
    _write_jsonl(gold, [record])
    assert run("eval", "--pred", gold, "--gold", gold) == 1
    assert capsys.readouterr().err.startswith(f"error: line 1: record a: {message}")


def _analyze_predictions(tmp_path):
    pred = tmp_path / "pred.jsonl"
    assert run("analyze", "-i", demo_treebank_path(), "-o", pred) == 0
    return pred


def test_invalid_utf8_predictions_are_a_data_error(tmp_path, capsys):
    pred = _analyze_predictions(tmp_path)
    _bad_utf8(pred, pred.read_text(encoding="utf-8"), 3)
    assert run("eval", "--pred", pred, "--gold", demo_gold_path()) == 1
    assert capsys.readouterr().err == f"error: {pred}:3: not valid UTF-8\n"


@pytest.mark.parametrize(
    "target", [["x", 2], [1], [1, 2, 3], [True, 2], [1.5, 2], "1-2", {"start": 1}]
)
def test_eval_rejects_a_target_that_is_not_an_integer_pair(tmp_path, capsys, target):
    pred = _analyze_predictions(tmp_path)
    records = read_jsonl(pred)
    records[2]["opinions"][0]["target"] = target
    _write_jsonl(pred, records)
    assert run("eval", "--pred", pred, "--gold", demo_gold_path()) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {pred}:3: target must be a pair of integers, got {target!r}\n"
    )


@pytest.mark.parametrize("line", ['[1, 2]', '"s1"', '{"sent_id": "s9", "opinions": 3}'])
def test_eval_rejects_prediction_records_of_the_wrong_shape(tmp_path, capsys, line):
    pred = _analyze_predictions(tmp_path)
    pred.write_text(pred.read_text() + line + "\n")
    assert run("eval", "--pred", pred, "--gold", demo_gold_path()) == 1
    assert capsys.readouterr().err.startswith(f"error: {pred}:4: ")


def test_eval_reads_the_predictions_file_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    gold_format = tmp_path / "gold_copy.jsonl"
    gold_format.write_bytes(demo_gold_path().read_bytes())
    monkeypatch.setattr(conllu, "open", counting_open, raising=False)
    for pred in (_analyze_predictions(tmp_path), gold_format):
        opened.clear()
        assert run("eval", "--pred", pred, "--gold", demo_gold_path(), "-o", tmp_path / "r") == 0
        assert opened.count(str(pred)) == 1


# ------------------------------------------------------------ configuration


def test_config_file_sets_flags_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("language = es\nworkers = 2\n")
    out = tmp_path / "out.jsonl"
    corpus = tmp_path / "c.conllu"
    run("gen", "--sentences", 3, "--length", 4, "--format", "conllu", "-o", corpus)
    # config language=es would miss the English words; the flag wins
    assert run("analyze", "--config", config, "--language", "en", "-i", corpus, "-o", out) == 0
    assert len(read_jsonl(out)) == 3


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    assert run("analyze", "--config", bad, "-i", demo_treebank_path()) == 2
    assert "unknown setting" in capsys.readouterr().err
    assert run("analyze", "--config", tmp_path / "missing.cfg") == 2
    dupe = tmp_path / "dupe.cfg"
    dupe.write_text("seed = 1\nseed = 2\n")
    assert run("analyze", "--config", dupe, "-i", demo_treebank_path()) == 2


# one valid setting per reader, for the lines around the bad one
_READERS = {
    "--rules": ("negation_shift", "2", "rule config: line {line}: "),
    "--config": ("seed", "2", "{path}:{line}: "),
}


@pytest.mark.parametrize("flag", list(_READERS))
@pytest.mark.parametrize(
    "text, line, message",
    [
        (b"{key} = {value}\njust words\n", 2, "expected 'key = value', got 'just words'"),
        (b"# settings\n  = 3\n", 2, "expected 'key = value', got '= 3'"),
        (b"{key} = {value}\n\n{key}= {value}\n", 3, "duplicate key '{key}'"),
        (b"{key} = {value}\n\xff{key} = {value}\n", 2, "not valid UTF-8"),
        (b"# tuning\n{key}: {value}\n# {key} = {value}\nno equals\n", 2,
         "expected 'key = value', got '{key}: {value}'"),
    ],
    ids=["no-equals", "empty-key", "duplicate-key", "bad-utf8", "comment-after-bad-line"],
)
def test_both_settings_readers_name_the_first_bad_line(tmp_path, capsys, flag, text, line, message):
    key, value, prefix = _READERS[flag]
    path = tmp_path / "settings.cfg"
    path.write_bytes(text.replace(b"{key}", key.encode()).replace(b"{value}", value.encode()))
    assert run("analyze", "-i", demo_treebank_path(), flag, path) == 2
    expected = prefix.format(path=path, line=line) + message.replace("{key}", key).replace(
        "{value}", value
    )
    assert capsys.readouterr() == ("", f"config error: {expected}\n")


@pytest.mark.parametrize(
    "flag, setting, message",
    [
        ("--config", "seed = x", "{path}:2: bad value for 'seed': 'x'"),
        ("--config", "workers = 0", "{path}:2: worker count must be >= 1, got 0"),
        ("--config", "scheme = nope", "{path}:2: bad value for 'scheme': 'nope'"),
        ("--config", "on_error = maybe",
         "{path}:2: on_error must be 'skip' or 'abort', got 'maybe'"),
        ("--rules", "negation_cap = 9",
         "rule config: line 2: negation_cap must be in (0, 5], got 9.0"),
        ("--rules", "neutral_threshold = nan",
         "rule config: line 2: neutral_threshold must be >= 0, got nan"),
        ("--rules", "adversative_weights = 1",
         "rule config: line 2: adversative_weights needs 2 values, got 1"),
    ],
)
def test_both_settings_readers_name_the_line_of_a_bad_value(
    tmp_path, capsys, flag, setting, message
):
    first = {"--config": "language = en", "--rules": "negation_shift = 2"}[flag]
    path = tmp_path / "settings.cfg"
    path.write_text(f"{first}\n{setting}\n# the line after\n")
    assert run("analyze", "-i", demo_treebank_path(), flag, path) == 2
    assert capsys.readouterr() == ("", f"config error: {message.format(path=path)}\n")


_SETTING_KEYS = [
    "negation_shift", "negation_cap", "adversative_weights", "neutral_threshold",
    "negation_scope", "language", "lexicon", "domain_lexicon", "rules", "scheme", "input",
    "output", "on_error", "workers", "seed", "", "#", "k\u00e9y",
]
_SETTING_VALUES = ["1", "0.5, 1.5", "nan", "-1", "en", "es", "brackets", "skip", "", "=", "x"]
_settings_line = st.one_of(
    st.builds(
        lambda key, sep, value: (key + sep + value).encode("utf-8"),
        st.sampled_from(_SETTING_KEYS) | st.text(max_size=5),
        st.sampled_from([" = ", "=", " ", ""]),
        st.sampled_from(_SETTING_VALUES) | st.text(max_size=5),
    ),
    st.sampled_from([b"", b"# comment", b"\xff", b"\r", b"\x00"]),
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.binary(max_size=120),
                 st.lists(_settings_line, max_size=6).map(lambda lines: b"\n".join(lines))))
def test_settings_files_end_cleanly_on_any_bytes(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("settings")
    path = folder / "settings.cfg"
    path.write_bytes(data)
    for flag in _READERS:
        out, err = io.StringIO(), io.StringIO()
        # the flags win over a config file's input, output and workers
        argv = ["analyze", "-i", demo_treebank_path(), "-o", folder / "out.jsonl",
                "--workers", 1, flag, path]
        with redirect_stdout(out), redirect_stderr(err):
            code = run(*argv)
        assert out.getvalue() == ""
        assert code in (0, 2), flag
        if code == 2:
            assert re.fullmatch(r"config error: [^\n]*\n", err.getvalue()), err.getvalue()
        else:
            assert err.getvalue() == ""


def test_bad_flag_values_are_config_errors(tmp_path, capsys):
    assert run("analyze", "-i", demo_treebank_path(), "--scheme", "sideways") == 2
    assert "unknown scheme" in capsys.readouterr().err
    assert run("analyze", "-i", demo_treebank_path(), "--workers", 0) == 2
    assert run("analyze", "-i", tmp_path / "missing.conllu") == 2


def test_nan_in_rules_file_is_a_config_error(tmp_path, capsys):
    rules = tmp_path / "rules.cfg"
    rules.write_text("neutral_threshold = nan\n")
    assert run("analyze", "-i", demo_treebank_path(), "--rules", rules) == 2
    assert "neutral_threshold must be >= 0" in capsys.readouterr().err


def _lexicon_stash(tmp_path):
    from treesent.assets import data_path

    stash = tmp_path / "lexicons"
    stash.mkdir()
    (stash / "custom.tsv").write_text(data_path("lexicon_en.tsv").read_text(encoding="utf-8"))
    return stash


def test_lexicon_search_path_fallback(tmp_path, monkeypatch):
    stash = _lexicon_stash(tmp_path)
    out = tmp_path / "out.jsonl"
    monkeypatch.delenv("TREESENT_LEXICON_DIR", raising=False)
    monkeypatch.delenv("SALSA_LEXICON_DIR", raising=False)
    assert run("analyze", "-i", demo_treebank_path(), "-o", out, "--lexicon", "custom.tsv") == 2
    monkeypatch.setenv("TREESENT_LEXICON_DIR", str(stash))
    assert run("analyze", "-i", demo_treebank_path(), "-o", out, "--lexicon", "custom.tsv") == 0
    assert [r["class"] for r in read_jsonl(out)] == ["positive", "negative", "negative"]


def test_the_former_lexicon_dir_variable_is_still_read(tmp_path, monkeypatch):
    stash = _lexicon_stash(tmp_path)
    out = tmp_path / "out.jsonl"
    monkeypatch.delenv("TREESENT_LEXICON_DIR", raising=False)
    monkeypatch.setenv("SALSA_LEXICON_DIR", str(stash))
    assert run("analyze", "-i", demo_treebank_path(), "-o", out, "--lexicon", "custom.tsv") == 0
    assert [r["class"] for r in read_jsonl(out)] == ["positive", "negative", "negative"]


def test_the_new_lexicon_dir_variable_wins_over_the_former_one(tmp_path, monkeypatch, capsys):
    stash = _lexicon_stash(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    out = tmp_path / "out.jsonl"
    argv = ("analyze", "-i", demo_treebank_path(), "-o", out, "--lexicon", "custom.tsv")
    monkeypatch.setenv("TREESENT_LEXICON_DIR", str(stash))
    monkeypatch.setenv("SALSA_LEXICON_DIR", str(elsewhere))
    assert run(*argv) == 0
    monkeypatch.setenv("TREESENT_LEXICON_DIR", str(elsewhere))
    monkeypatch.setenv("SALSA_LEXICON_DIR", str(stash))
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        f"config error: lexicon file not found: custom.tsv "
        f"(also tried {elsewhere / 'custom.tsv'})\n"
    )


@pytest.mark.parametrize(
    "flag", ["--lexicon", "--domain-lexicon", "--rules", "--config", "-i", "-o"]
)
def test_a_directory_where_a_file_belongs_is_a_config_error(tmp_path, capsys, flag, monkeypatch):
    monkeypatch.delenv("TREESENT_LEXICON_DIR", raising=False)
    monkeypatch.delenv("SALSA_LEXICON_DIR", raising=False)
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = ["analyze", flag, folder]
    if flag != "-i":
        argv += ["-i", demo_treebank_path()]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(folder) in err
    assert err.count("\n") == 1


def test_eval_directory_paths_are_config_errors(tmp_path, capsys):
    gold = demo_gold_path()
    assert run("eval", "--pred", tmp_path, "--gold", gold) == 2
    assert run("eval", "--pred", gold, "--gold", tmp_path) == 2
    assert run("eval", "--pred", gold, "--gold", gold, "--pred-parse", tmp_path) == 2
    assert run("eval", "--pred", gold, "--gold", gold, "-o", tmp_path) == 2
    assert capsys.readouterr().err.count("config error: ") == 4


def test_output_in_a_missing_directory_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.jsonl"
    assert run("analyze", "-i", demo_treebank_path(), "-o", out) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write output file {out}: No such file or directory\n"
    )


@pytest.mark.parametrize("command", ["analyze", "encode", "decode"])
def test_a_missing_input_leaves_the_output_file_as_it_was(tmp_path, capsys, command):
    missing, out = tmp_path / "missing.conllu", tmp_path / "out.txt"
    out.write_text("kept\n")
    assert run(command, "-i", missing, "-o", out) == 2
    assert capsys.readouterr().err == f"config error: input file not found: {missing}\n"
    assert out.read_text() == "kept\n"


def _same_file_argv(tmp_path, command, link):
    if command == "decode":
        source = tmp_path / "in.bridge"
        assert run("gen", "--sentences", 5, "--length", 6, "-o", source) == 0
    else:
        source = tmp_path / "in.conllu"
        source.write_bytes(demo_treebank_path().read_bytes())
    target = source
    if link:
        target = tmp_path / "link"
        target.symlink_to(source)
    return source, [command, "-i", source, "-o", target]


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
@pytest.mark.parametrize("command", ["analyze", "encode", "decode"])
def test_output_that_is_the_input_is_refused_before_it_is_truncated(
    tmp_path, capsys, command, link
):
    source, argv = _same_file_argv(tmp_path, command, link)
    before = source.read_bytes()
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        f"config error: output file {argv[-1]} is the input file {source}\n"
    )
    assert source.read_bytes() == before


@pytest.mark.parametrize(
    "error",
    [
        conllu.ConlluError("bad column count", 3, 14),
        BridgeError("bad label", 7),
        NonProjectiveError(((2, 4), (3, 5))),
        EvalError("no prediction"),
        TreeError("no root"),
        OpinionError("bad span"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_every_data_error_exits_1(monkeypatch, capsys, error):
    assert isinstance(error, DataError)

    def fail(cfg):
        raise error

    monkeypatch.setattr(cli, "cmd_encode", fail)
    assert run("encode") == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_unknown_language_is_config_error(tmp_path, capsys):
    assert run("analyze", "-i", demo_treebank_path(), "--language", "xx") == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "-i", demo_treebank_path()),
        ("analyze", "--explain", "-i", demo_treebank_path()),
        ("analyze", "--baseline", "-i", demo_treebank_path()),
        ("aspects", "-i", demo_treebank_path()),
        *(("encode", "--scheme", scheme, "-i", demo_ud_path())
          for scheme in ("rel-offset", "rel-pos", "brackets")),
    ],
    ids=lambda argv: "-".join(str(a) for a in argv[:-2]),
)
def test_commands_build_no_token_rows(tmp_path, monkeypatch, argv):
    """The commands read and write tree columns; ``Token`` rows are only a
    view for library callers."""
    built, views = [], []
    token_new = Token.__new__
    view = DepTree.__dict__["tokens"]

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return token_new(cls, *args, **kwargs)

    def counted_view(tree):
        views.append(tree.sentence_id)
        return view.func(tree)

    monkeypatch.setattr(Token, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(DepTree, "tokens", property(counted_view))
    bridge = tmp_path / "lines.bridge"
    scheme = argv[2] if argv[0] == "encode" else "rel-offset"
    assert run(*argv, "--workers", 1, "-o", bridge) == 0
    if argv[0] == "encode":
        assert run("decode", "--scheme", scheme, "-i", bridge, "-o", tmp_path / "back") == 0
        assert (tmp_path / "back").stat().st_size > 0
    assert built == [] and views == []
    # the counters do see the view when something asks for it
    assert DepTree.build([0]).tokens and len(built) == 1 and len(views) == 1


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["analyze", "encode", "decode"])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, command, buffered):
    # buffered, the first failing write is the flush at the end of main()
    source = demo_treebank_path()
    if command == "decode":
        source = tmp_path / "demo.bridge"
        assert run("encode", "-i", demo_treebank_path(), "-o", source) == 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first record is written
    try:
        done = subprocess.run(
            [sys.executable, "-S", "-c", "import sys; from treesent.cli import main; sys.exit(main())",
             command, "-i", str(source)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    # decode reports its tallies on stderr before the end-of-run flush finds the pipe closed
    assert all(line.startswith(b"decoded ") for line in done.stderr.splitlines()), done.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run("--version")
    assert info.value.code == 0
    assert "treesent" in capsys.readouterr().out


# ------------------------------------------------------------ byte order mark

# A file saved with a UTF-8 byte order mark reads as the same file without one.
BOM = b"\xef\xbb\xbf"


def _scores(tmp_path, *flags):
    out = tmp_path / "out.jsonl"
    assert run("analyze", "-i", demo_treebank_path(), *flags, "-o", out) == 0
    return [(record["class"], record["valence"]) for record in read_jsonl(out)]


def test_a_byte_order_mark_keeps_the_first_lexicon_entry(tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_bytes(BOM + b"good\tADJ\t1.0\n")
    # "good" is in s1 and s2; no shifter is known, so each scores 1.0
    expected = [("positive", 1.0), ("positive", 1.0), ("neutral", 0.0)]
    assert _scores(tmp_path, "--lexicon", lexicon) == expected


def test_a_byte_order_mark_keeps_the_first_domain_override(tmp_path):
    base, domain = tmp_path / "base.tsv", tmp_path / "domain.tsv"
    base.write_bytes(b"good\tADJ\t1.0\n")
    domain.write_bytes(BOM + b"good\tADJ\t-2.0\n")
    expected = [("negative", -2.0), ("negative", -2.0), ("neutral", 0.0)]
    assert _scores(tmp_path, "--lexicon", base, "--domain-lexicon", domain) == expected


@pytest.mark.parametrize("flag, text", [
    ("--rules", b"negation_shift = 1\nneutral_threshold = 2\n"),
    ("--config", b"seed = 3\nlanguage = en\n"),
], ids=["rules", "config"])
def test_a_settings_file_with_a_byte_order_mark_reads_as_without_one(tmp_path, flag, text):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text)
    marked.write_bytes(BOM + text)
    assert _scores(tmp_path, flag, marked) == _scores(tmp_path, flag, plain)


@pytest.mark.parametrize("marked", ["--gold", "--pred"])
def test_eval_reads_json_lines_with_a_byte_order_mark(tmp_path, marked):
    copy = tmp_path / "marked.jsonl"
    copy.write_bytes(BOM + demo_gold_path().read_bytes())
    files = {"--gold": demo_gold_path(), "--pred": demo_gold_path(), marked: copy}
    out = tmp_path / "report.json"
    assert run("eval", *(part for item in files.items() for part in item), "-o", out) == 0
    report = json.loads(out.read_text())
    assert report["sentences"] == 3
    assert report["sentence"]["accuracy"] == 1.0
    assert report["targets"]["exact"]["f1"] == 1.0


@pytest.mark.parametrize("first", ["comment", "token"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stdin", [False, True], ids=["path", "stdin"])
def test_conllu_input_with_a_byte_order_mark_reads_as_without_one(
    tmp_path, capsys, monkeypatch, small_chunks, first, workers, stdin
):
    plain = _pool_corpus(tmp_path)
    data = plain.read_bytes()
    if first == "token":  # the first sentence starts at its first token row
        data = data.split(b"\n", 1)[1]
        plain.write_bytes(data)
    marked = tmp_path / "marked.conllu"
    marked.write_bytes(BOM + data)
    outputs = []
    for path in (plain, marked):
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes())))
            argv = ("analyze", "--workers", workers)
        else:
            argv = ("analyze", "-i", path, "--workers", workers)
        assert run(*argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.count("\n") == POOL_SENTENCES


def test_decode_drops_a_byte_order_mark_from_the_first_sent_id(tmp_path, capsys):
    bridge = tmp_path / "demo.bridge"
    assert run("encode", "-i", demo_treebank_path(), "-o", bridge) == 0
    marked = tmp_path / "marked.bridge"
    marked.write_bytes(BOM + bridge.read_bytes())
    outputs = []
    for path in (bridge, marked):
        assert run("decode", "-i", path) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[1].startswith("# sent_id = s1\n")


# ---------------------------------------------------------- decode in the pool


def _bridge_corpus(tmp_path, edit=lambda lines: None):
    """POOL_SENTENCES generated bridge lines, about 56 KB, changed by ``edit``
    of their list of lines; the small_chunks fixture cuts them into 15 chunks."""
    path = tmp_path / "pool.bridge"
    assert run("gen", "--sentences", POOL_SENTENCES, "--length", 6, "--seed", 9, "-o", path) == 0
    lines = path.read_bytes().splitlines(keepends=True)
    edit(lines)
    path.write_bytes(b"".join(lines))
    return path


def _damaged_lines(lines):
    lines[40] = b"bad\tno/fields\n"
    lines[41] = lines[41].replace(b"/+1:", b"/+99:", 1)  # a head out of range, repaired
    lines[300] = lines[300].replace(b"/", b"/\t/", 1)


def _blank_lines(lines):
    lines[10:10] = [b"\n", b" \t\n"]
    lines[200:200] = [b"\r\n", "\u3000\n".encode("utf-8")]
    lines.append(b"\n")


def _crlf_lines(lines):
    lines[:] = [line.replace(b"\n", b"\r\n") for line in lines]


def _not_utf8_line(lines):
    lines[123] = lines[123].replace(b"/", b"\xff/", 1)


BRIDGE_INPUTS = {
    "clean": lambda lines: None,
    "damaged": _damaged_lines,
    "crlf": _crlf_lines,
    "bom": lambda lines: lines.__setitem__(0, BOM + lines[0]),
    "blank lines": _blank_lines,
    "not utf-8": _not_utf8_line,
}
# the lines of each input that cannot be read
BAD_BRIDGE_LINES = {"damaged": 2, "not utf-8": 1}


@pytest.mark.parametrize("on_error", ["skip", "abort"])
@pytest.mark.parametrize("kind", BRIDGE_INPUTS)
def test_decode_writes_the_same_bytes_on_any_worker_count(
    tmp_path, capsys, small_chunks, kind, on_error
):
    corpus = _bridge_corpus(tmp_path, BRIDGE_INPUTS[kind])
    assert len(list(conllu.read_line_chunks(corpus))) > 2 * 3
    single, *pooled = _per_worker_count(capsys, "decode", "-i", corpus, "--on-error", on_error)
    bad = BAD_BRIDGE_LINES.get(kind, 0)
    assert single[0] == (1 if on_error == "abort" and bad else 0)
    if single[0] == 0:
        assert single[1].count("\n\n") == POOL_SENTENCES - bad
    assert all(result == single for result in pooled)


@pytest.mark.parametrize("command", ["analyze", "decode"])
def test_a_stdin_of_text_alone_reads_as_its_bytes(tmp_path, capsys, monkeypatch, command):
    corpus = _pool_corpus(tmp_path) if command == "analyze" else _bridge_corpus(tmp_path)
    expected = _run_output(capsys, command, "-i", corpus)
    text = corpus.read_bytes().decode("utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert _run_output(capsys, command, "--workers", 2) == expected
    # text that held bytes that were not UTF-8 stays so, on their line
    monkeypatch.setattr(sys, "stdin", io.StringIO("\udcff" + text))
    code, _, err = _run_output(capsys, command)
    assert (code, err) == (1, "error: " + ("sentence 1 (line 1)" if command == "analyze"
                                           else "line 1") + ": not valid UTF-8\n")


def _line_chunk_starts(path):
    return [line for line, _ in conllu.read_line_chunks(path)]


def _untabbed(line, lines):
    """Line ``line`` without the tab after its sent_id, which keeps every cut in place."""
    lines[line - 1] = lines[line - 1].replace(b"\t", b" ", 1)


@pytest.mark.parametrize("side", [-1, 0], ids=["end-of-chunk", "start-of-chunk"])
def test_decode_abort_names_the_same_line_on_either_side_of_a_chunk_boundary(
    tmp_path, capsys, small_chunks, side
):
    boundary = _line_chunk_starts(_bridge_corpus(tmp_path))[2]
    bad = boundary + side
    corpus = _bridge_corpus(tmp_path, partial(_untabbed, bad))
    assert boundary in _line_chunk_starts(corpus)
    single, *pooled = _per_worker_count(capsys, "decode", "-i", corpus)
    assert single[0] == 1
    assert single[1].count("\n\n") == bad - 1
    assert single[2] == f"error: line {bad}: expected 'sent_id<TAB>token fields'\n"
    assert all(result == single for result in pooled)


def test_decode_skip_reports_the_same_tallies_on_any_worker_count(tmp_path, capsys, small_chunks):
    boundary = _line_chunk_starts(_bridge_corpus(tmp_path))[3]

    def damage(lines):  # in place, so that every cut stays where it was
        _untabbed(boundary - 1, lines)  # the last line of a chunk
        lines[boundary - 1] = lines[boundary - 1].replace(b"/", b"\xff", 1)  # the next one's first
        for i in range(0, POOL_SENTENCES, 7):
            lines[i] = lines[i].replace(b"/+1:", b"/+9:", 1)  # a head out of range, repaired

    corpus = _bridge_corpus(tmp_path, damage)
    assert boundary in _line_chunk_starts(corpus)
    single, *pooled = _per_worker_count(capsys, "decode", "-i", corpus, "--on-error", "skip")
    assert single[0] == 0
    assert re.fullmatch(
        r"decoded 456 sentences, repairs total=[1-9]\d* \(out_of_range=[1-9]\d*, "
        r"extra_roots=\d+, missing_root=\d+, cycles_broken=\d+\), skipped=2\n", single[2])
    assert all(result == single for result in pooled)


# ------------------------------------------------------- bench's line numbers


def _bench_corpus(tmp_path, bad_line, bad):
    """60 generated bridge lines with two blank lines after the 20th; line
    ``bad_line`` of the file is replaced by ``bad``."""
    corpus = tmp_path / "corpus.bridge"
    assert run("gen", "--sentences", 60, "--length", 6, "-o", corpus) == 0
    lines = corpus.read_bytes().splitlines(keepends=True)
    lines[20:20] = [b"\n", b" \t\n"]
    lines[bad_line - 1] = bad
    corpus.write_bytes(b"".join(lines))
    return corpus


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad, message", [
    (b"a\tno/fields\n", "bad token field 'no/fields'"),
    (b"a\tok/X/0:root\xff\n", "not valid UTF-8"),
], ids=["field", "bytes"])
def test_bench_names_the_line_of_the_file(tmp_path, capsys, workers, bad, message):
    corpus = _bench_corpus(tmp_path, 51, bad)
    code = run("bench", "-i", corpus, "--workers", workers, "--warmup", 0)
    assert code == 1
    assert capsys.readouterr().err == _small_corpus_warning(60) + f"error: line 51: {message}\n"
