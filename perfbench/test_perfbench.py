"""Tests of the benchmark itself: generator, checker and span arithmetic.

Run from the root of a checkout with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
from pathlib import Path

import pytest

import checker
import run
import spans
import workloads
from treesent import Scheme, encode, read_conllu
from treesent.encodings import format_label

SMALL = workloads.Params(40, 12, 0.5, 4, 60, p_negate=0.5, p_intensify=0.5, p_contrast=0.5)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    first = workloads.build(name, 3, tmp_path / "a").digests()
    again = workloads.build(name, 3, tmp_path / "b").digests()
    other = workloads.build(name, 4, tmp_path / "c").digests()
    assert first == again
    inputs = [key for key in first if not key.startswith("empty")]
    assert inputs and all(first[key] != other[key] for key in inputs)


def test_generated_labels_match_the_package_encoder(tmp_path):
    wl = workloads.build("encode", 5, tmp_path)
    for tree in read_conllu(wl.commands[0].input, on_error="abort"):
        for scheme in workloads.SCHEMES:
            mine = workloads.labels_for(tree.heads, tree.upos_tags, scheme)
            theirs = [format_label(label).rsplit(":", 1)[0]
                      for label in encode(tree, Scheme.parse(scheme)).labels]
            assert mine == theirs


def test_decode_inputs_have_every_repair_and_crossing_arcs(tmp_path):
    wl = workloads.build("decode", 2, tmp_path)
    kinds = wl.properties["corruption_kinds"]
    assert all(kinds.get(kind, 0) > 0 for kind in workloads.CORRUPTIONS)
    assert all(share > 0.1 for share in wl.properties["nonprojective_share"].values())
    assert not any(workloads.crossing(heads) for heads in wl.gold_heads["decode.brackets"])


# ------------------------------------------------------------------ checker


@pytest.fixture(scope="module")
def explained(tmp_path_factory):
    """A small corpus and the ``analyze --explain`` output for it."""
    corpus = workloads.make_corpus(SMALL, 9, "t")
    path = tmp_path_factory.mktemp("explain") / "small.conllu"
    path.write_text("".join(workloads.conllu_block(s) for s in corpus), encoding="utf-8")
    [out] = spans.drive_analyze(path, True, 1, spans.NullTracer(), False, {})
    return [s.sent_id for s in corpus], out.decode("utf-8").splitlines(keepends=True)


def _bytes(lines):
    return "".join(lines).encode("utf-8")


def test_checker_accepts_the_real_output(explained):
    ids, lines = explained
    assert len(lines) == len(ids)
    assert checker.check_analyze(_bytes(lines), ids, explain=True) == 0


def test_checker_rejects_a_dropped_record(explained):
    ids, lines = explained
    assert checker.check_analyze(_bytes(lines[:5] + lines[6:]), ids, explain=True) == 1


def test_checker_rejects_a_reordered_record(explained):
    ids, lines = explained
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
    assert checker.check_analyze(_bytes(swapped), ids, explain=True) == 1


def test_checker_rejects_a_bare_nan(explained):
    ids, lines = explained
    record = json.loads(lines[7])
    bad = json.dumps({**record, "valence": float("nan")}) + "\n"
    assert "NaN" in bad
    assert checker.check_analyze(_bytes(lines[:7] + [bad] + lines[8:]), ids, True) == 1


def test_checker_rejects_an_added_bare_nan_line(explained):
    ids, lines = explained
    assert checker.check_analyze(_bytes(lines + ["NaN\n"]), ids, explain=True) == 1
    assert checker.check_analyze(_bytes(lines[:4] + ["NaN\n"] + lines[4:]), ids, True) == 1


def test_checker_rejects_a_duplicated_record(explained):
    ids, lines = explained
    assert checker.check_analyze(_bytes(lines[:6] + [lines[5]] + lines[6:]), ids, True) == 1
    assert checker.check_analyze(_bytes(lines + [lines[-1]]), ids, explain=True) == 1


def test_checker_rejects_a_tampered_trace(explained):
    ids, lines = explained
    index = 3
    record = json.loads(lines[index])
    record["trace"][-1][3] += 1.0  # the sentence-level step the replay ends on
    tampered = lines[:index] + [json.dumps(record) + "\n"] + lines[index + 1:]
    assert checker.check_analyze(_bytes(tampered), ids, explain=True) == 1


def test_count_failed_finds_each_missing_or_misplaced_record():
    ids = ["a", "b", "c", "d"]
    assert checker.count_failed(ids, [("a", True), ("b", True), ("c", True), ("d", True)]) == 0
    assert checker.count_failed(ids, [("a", True), ("c", True), ("d", True)]) == 1
    assert checker.count_failed(ids, [("b", True), ("a", True), ("c", True), ("d", True)]) == 1
    assert checker.count_failed(ids, [("a", True), (None, False), ("c", True), ("d", True)]) == 1
    assert checker.count_failed(ids, []) == 4
    # entries that no sentence consumes
    assert checker.count_failed(ids, [("a", True), ("b", True), ("c", True), ("d", True),
                                      (None, False)]) == 1
    assert checker.count_failed(ids, [("a", True), ("b", True), ("b", True), ("c", True),
                                      ("d", True)]) == 1
    assert checker.count_failed(ids, [("a", True), ("x", True), ("b", True), ("c", True),
                                      ("d", True)]) == 1
    assert checker.count_failed(ids, [(None, False)] * 9) == 4


def test_decode_checker_rejects_a_wrong_head_only_where_labels_were_clean(tmp_path):
    wl = workloads.build("decode", 1, tmp_path)
    command = wl.commands[0]
    [out, *_] = spans.drive_decode([(command.scheme, command.input)], spans.NullTracer(),
                                   False, {})
    check = checker.checker_for(wl, command)
    assert check(out) == 0
    blocks = out.decode("utf-8").split("\n\n")
    clean = next(i for i, sid in enumerate(wl.sent_ids[command.name])
                 if sid not in wl.corrupted[command.name])
    rows = blocks[clean].split("\n")
    cols = rows[-1].split("\t")
    cols[6] = "1" if cols[6] != "1" and cols[0] != "1" else "2"
    rows[-1] = "\t".join(cols)
    blocks[clean] = "\n".join(rows)
    assert check("\n\n".join(blocks).encode("utf-8")) == 1


def test_decode_checker_rejects_a_duplicated_sentence(tmp_path):
    wl = workloads.build("decode", 1, tmp_path)
    command = wl.commands[0]
    [out, *_] = spans.drive_decode([(command.scheme, command.input)], spans.NullTracer(),
                                   False, {})
    blocks = out.decode("utf-8").split("\n\n")
    doubled = "\n\n".join(blocks[:3] + [blocks[2]] + blocks[3:])
    assert checker.checker_for(wl, command)(doubled.encode("utf-8")) == 1
    garbage = "\n\n".join(blocks[:3] + ["1\tnot a sentence"] + blocks[3:])
    assert checker.checker_for(wl, command)(garbage.encode("utf-8")) == 1
    broken = "\n\n".join(blocks[:3] + ["1\tnot a sentence"] + blocks[4:])
    assert checker.checker_for(wl, command)(broken.encode("utf-8")) == 1


def test_encode_checker_rejects_a_damaged_line(tmp_path):
    wl = workloads.build("encode", 1, tmp_path)
    command = wl.commands[0]
    outputs = spans.drive_encode(command.input, [command.scheme], spans.NullTracer(), False, {})
    check = checker.checker_for(wl, command)
    assert check(outputs[0]) == 0
    lines = outputs[0].decode("utf-8").splitlines(keepends=True)
    assert check(_bytes(lines[:2] + lines[3:])) == 1


# -------------------------------------------------------------------- spans


def test_self_time_on_a_hand_built_span_tree():
    tr = spans.Tracer()
    root = tr.record("drive.read", 0.0, 10.0, -1, -1)
    read = tr.record("conllu.read", 1.0, 4.0, root, 0)
    tr.record("tree.validate", 2.0, 3.0, read, 0)
    tr.record("conllu.read", 5.0, 9.0, root, 1)
    # children overlapping each other and the parent's end count once
    other = tr.record("rules.analyze", 20.0, 30.0, -1, 2)
    tr.record("lexicon.busy", 21.0, 25.0, other, 2)
    tr.record("lexicon.busy", 24.0, 32.0, other, 2)
    own = tr.self_times()
    assert own["drive.read"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["conllu.read"] == pytest.approx((3.0 - 1.0) + 4.0)
    assert own["tree.validate"] == pytest.approx(1.0)
    assert own["rules.analyze"] == pytest.approx(10.0 - 9.0)
    assert own["lexicon.busy"] == pytest.approx(4.0 + 8.0)
    assert tr.self_times(first=4) == pytest.approx(
        {"rules.analyze": 1.0, "lexicon.busy": 12.0})


def test_tracer_nests_spans_it_opens():
    tr = spans.Tracer()
    outer = tr.begin("drive.read")
    inner = tr.begin("conllu.read", 0, replay=True)
    tr.end_(inner)
    tr.end_(outer)
    assert tr.parent[inner] == outer and tr.parent[outer] == -1
    assert tr.replay_time() == pytest.approx(tr.end[inner] - tr.start[inner])
    total = sum(tr.self_times().values())
    assert total == pytest.approx(tr.end[outer] - tr.start[outer])


# --------------------------------------------------------------- contract


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _better) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["better"] == run.END_TO_END[m["name"]][1] for m in spec["end_to_end"])


def test_a_changed_output_digest_is_reported(tmp_path):
    store = tmp_path / "digests.json"
    assert run.compare_digests(store, "decode/1", {"decode.brackets": "aa"}) == []
    assert run.compare_digests(store, "decode/1", {"decode.brackets": "aa"}) == []
    [note] = run.compare_digests(store, "decode/1", {"decode.brackets": "bb"})
    assert "decode.brackets" in note and "aa -> bb" in note
    assert run.compare_digests(store, "decode/2", {"decode.brackets": "cc"}) == []


def test_worse_side_percentile_leaves_ten_samples_beyond():
    values = list(range(40))
    assert run.worse_side_percentile(values, "lower") == (75, 29)
    assert run.worse_side_percentile(values, "higher") == (75, 10)
    assert run.worse_side_percentile(values[:10], "lower")[0] == 0
