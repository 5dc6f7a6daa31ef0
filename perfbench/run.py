"""treesent benchmark: one workload per run, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's commands as fresh ``treesent`` processes
in a closed loop (one client, one command at a time) for ``--seconds`` and
reports the end-to-end metrics. ``--trace 1`` drives the same inputs through
the package's public functions in this process, with a span around every
call into a layer, and reports the per-layer metrics. Inputs are generated
from ``--seed`` into ``.bench_build/perfbench/`` before any clock starts.
Outputs are checked apart from the timing. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NoReturn, Sequence, Tuple

import workloads
from closedloop import RECORD_END, command_env, invoke, treesent_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "sentences_per_s": ("1/s", "higher"),
    "cpu_s_per_ksent": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "first_output_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
}
SCHEMES = workloads.SCHEMES
PER_LAYER = {
    "conllu.read_s": "s", "conllu.write_s": "s",
    "conllu.sentences": "count", "conllu.dropped_ranges": "count",
    "tree.validate_s": "s", "tree.crossing_s": "s",
    **{f"encodings.{what}_s.{s}": "s"
       for what in ("bridge", "decode", "encode", "format") for s in SCHEMES},
    "encodings.repairs.out_of_range": "count", "encodings.repairs.extra_roots": "count",
    "encodings.repairs.missing_root": "count", "encodings.repairs.cycles_broken": "count",
    "encodings.repair_rate": "ratio", "encodings.uas": "ratio",
    "lexicon.busy_s": "s", "lexicon.hit_rate": "ratio", "lexicon.shifter_rate": "ratio",
    "lexicon.load_s": "s",
    "rules.analyze_s": "s", "rules.score_s": "s", "rules.targets_s": "s",
    "rules.fired.LEXICON": "count", "rules.fired.INTENSIFY": "count",
    "rules.fired.NEGATE": "count", "rules.fired.ADVERSATIVE": "count",
    "rules.trace_steps": "count", "rules.targets.found": "count",
    "rules.targets.kept": "count", "rules.targets.kept_ratio": "ratio",
    "cli.serialise_s": "s", "cli.bytes_out": "B", "cli.pool_bytes": "B",
    "cli.pool_pickle_s": "s",
    "setup.import_s": "s",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}
# per-layer time metric -> the span whose self time it is
SPAN_OF = {
    "conllu.read_s": "conllu.read", "conllu.write_s": "conllu.write",
    "tree.validate_s": "tree.validate", "tree.crossing_s": "tree.crossing",
    **{f"encodings.{what}_s.{s}": f"encodings.{what}.{s}"
       for what in ("bridge", "decode", "encode", "format") for s in SCHEMES},
    "lexicon.busy_s": "lexicon.busy", "lexicon.load_s": "lexicon.load",
    "rules.analyze_s": "rules.analyze", "rules.score_s": "rules.score",
    "rules.targets_s": "rules.targets",
    "cli.serialise_s": "cli.serialise", "cli.pool_pickle_s": "cli.pool_pickle",
}
IMPORT_REPEATS = 5
# Times are scaled to a machine on which refjob.py takes this long.
REFERENCE_S = 0.2
IMPORT_PROBE = ("import time; t = time.perf_counter(); import treesent.cli; "
                "print(repr(time.perf_counter() - t))")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "treesent" / "__init__.py").is_file():
        fail(f"no treesent sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import treesent

    if Path(treesent.__file__).resolve().parent != (src / "treesent").resolve():
        fail(f"imported treesent from {treesent.__file__}, not from {src}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def worse_side_percentile(values: Sequence[float], better: str) -> Tuple[int, float]:
    """The highest percentile with at least ten samples beyond it, on the
    side where the metric is worse; (0, nan) with fewer than 11 samples."""
    n = len(values)
    rank = n - 10
    if rank < 1:
        return 0, math.nan
    ordered = sorted(values, reverse=(better == "higher"))
    return int(100 * rank / n), ordered[rank - 1]


def describe(name: str, values: Sequence[float], unit: str, better: str) -> str:
    q, tail = worse_side_percentile(values, better)
    med = statistics.median(values)
    tail_text = f"p{q} {tail:.6g}" if q else "no percentile with ten samples beyond it"
    return f"{name}: median {med:.6g} {unit}, {tail_text} (worse side), n={len(values)}"


def machine() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def compare_digests(store: Path, key: str, digests: Dict[str, str]) -> List[str]:
    """Report outputs whose digest differs from the one ``store`` holds for
    the same key, from the last run of this workload and seed."""
    known = json.loads(store.read_text()) if store.is_file() else {}
    notes = []
    for name, digest in digests.items():
        before = known.get(f"{key}/{name}")
        if before is not None and before != digest:
            notes.append(f"output digest changed for {name}: {before} -> {digest}")
        known[f"{key}/{name}"] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return notes


# --------------------------------------------------------------- end to end


def run_end_to_end(wl, seconds: float, work: Path) -> dict:
    # checker and spans import treesent, which load_package puts on the path
    from checker import CachedCheck, checker_for

    env = command_env(ROOT)
    stderr_path = work / "stderr.txt"
    checks = {c.name: CachedCheck(checker_for(wl, c)) for c in wl.commands}
    sizes = {c.name: len(wl.sent_ids[c.name]) for c in wl.commands}
    problems: List[str] = []

    def run(name: str, argv: List[str], record_end: bytes = b"\n"):
        inv = invoke(argv, env, ROOT, record_end, stderr_path)
        if inv.exit_code != 0:
            problems.append(f"{name} exited {inv.exit_code}: "
                            f"{inv.stderr.decode(errors='replace').strip()[-300:]}")
        return inv

    def run_command(command, path: Path):
        argv = treesent_argv([*command.args, "-i", str(path)])
        return run(command.name, argv, RECORD_END[command.kind])

    reference_argv = [sys.executable, "-S", str(HERE / "refjob.py")]
    reference_outputs = set()

    def reference() -> float:
        inv = run("reference job", reference_argv)
        reference_outputs.add(inv.output)
        return inv.wall_s

    # untimed: writes the bytecode cache on the first run in a checkout
    run_command(wl.commands[0], wl.commands[0].empty)
    raw: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    refs: List[float] = [reference()]
    attempted = failed = 0
    seen: Dict[str, set] = {c.name: set() for c in wl.commands}

    def paired(command, path: Path):
        """Run one invocation between two runs of the reference job, and
        the factor that scales its times to the reference machine."""
        inv = run_command(command, path)
        refs.append(reference())
        return inv, REFERENCE_S * 2 / (refs[-2] + refs[-1])

    started = perf_counter()
    while perf_counter() - started < seconds:
        wall = cpu = first = 0.0
        scaled_wall = scaled_cpu = scaled_first = 0.0
        rss = 0
        sentences = 0
        for command in wl.commands:
            inv, k = paired(command, command.input)
            digest = sha256(inv.output)
            seen[command.name].add(digest)
            n = sizes[command.name]
            failed += n if inv.exit_code != 0 else checks[command.name](digest, inv.output)
            attempted += n
            sentences += n
            wall += inv.wall_s
            cpu += inv.cpu_s
            first += inv.first_output_s
            scaled_wall += inv.wall_s * k
            scaled_cpu += inv.cpu_s * k
            scaled_first += inv.first_output_s * k
            rss = max(rss, inv.peak_rss_kib)
        for into, wall_s, cpu_s, first_s in ((raw, wall, cpu, first),
                                             (samples, scaled_wall, scaled_cpu, scaled_first)):
            into["sentences_per_s"].append(sentences / wall_s)
            into["cpu_s_per_ksent"].append(cpu_s / (sentences / 1000))
            into["peak_rss_mib"].append(rss / 1024)
            into["first_output_s"].append(first_s / len(wl.commands))
        command = wl.commands[len(raw["setup_s"]) % len(wl.commands)]
        inv, k = paired(command, command.empty)
        raw["setup_s"].append(inv.wall_s)
        samples["setup_s"].append(inv.wall_s * k)
    elapsed = perf_counter() - started
    if len(reference_outputs) != 1:
        problems.append("reference job output is not the same on every run")

    (work / "rounds.json").write_text(json.dumps({"reference_s": refs, "unscaled": raw}))
    print(f"closed loop, one client: {len(samples['setup_s'])} rounds in {elapsed:.1f} s, each "
          f"{len(wl.commands)} command(s) and one empty-input run, each run between two runs "
          f"of the reference job")
    print(describe("reference job", refs, "s", "lower"))
    for name, (unit, better) in END_TO_END.items():
        print(describe(name, samples[name], unit, better)
              + f"; unscaled median {statistics.median(raw[name]):.6g}")
    print(f"failed_frac: {failed / attempted if attempted else 1.0} "
          f"({failed} of {attempted} sentences)")
    digests = {}
    for command in wl.commands:
        digest, *others = sorted(seen[command.name])
        digests[command.name] = digest
        print(f"output sha256 {command.name}: {digest}")
        if others:
            print(f"output digest not stable for {command.name}: {len(others) + 1} distinct")
    changed = compare_digests(BUILD / "digests.json", f"{wl.name}/{wl.seed}", digests)
    for note in changed + problems[:5]:
        print(note)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": unit}
                    for name, (unit, _better) in END_TO_END.items()},
    }


# ------------------------------------------------------------------- traced


def import_time() -> float:
    """Median wall time of ``import treesent.cli`` in a fresh interpreter."""
    env = command_env(ROOT)
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def decode_uas(wl, outputs: Sequence[bytes]) -> float:
    from checker import read_decoded
    from treesent import eval_parse

    pred, gold = [], []
    for command, out in zip(wl.commands, outputs):
        for tree, gold_tree in read_decoded(out, wl.sent_ids[command.name],
                                            wl.gold_heads[command.name]):
            if gold_tree is not None:
                pred.append(tree)
                gold.append(gold_tree)
    return eval_parse(pred, gold).uas


def run_traced(wl, seconds: float, work: Path) -> dict:
    import spans
    from checker import CachedCheck, checker_for

    [first_command, *_] = wl.commands
    if wl.name in ("analyze", "explain-2w"):
        def drive(tr, replay, counts):
            return spans.drive_analyze(first_command.input, first_command.explain,
                                       first_command.workers, tr, replay, counts)
    elif wl.name == "decode":
        def drive(tr, replay, counts):
            return spans.drive_decode([(c.scheme, c.input) for c in wl.commands], tr, replay,
                                      counts)
    else:
        def drive(tr, replay, counts):
            return spans.drive_encode(first_command.input, [c.scheme for c in wl.commands],
                                      tr, replay, counts)

    # the command's own output, which the in-process drive must reproduce
    env = command_env(ROOT)
    command_digests = []
    exits = []
    for command in wl.commands:
        argv = treesent_argv([*command.args, "-i", str(command.input)])
        inv = invoke(argv, env, ROOT, RECORD_END[command.kind], work / "stderr.txt")
        command_digests.append(sha256(inv.output))
        exits.append(inv.exit_code)
    setup_import = import_time()

    checks = [CachedCheck(checker_for(wl, c)) for c in wl.commands]
    sizes = [len(wl.sent_ids[c.name]) for c in wl.commands]
    attempted = failed = 0

    def checked(outputs: Sequence[bytes]) -> List[str]:
        nonlocal attempted, failed
        digests = [sha256(out) for out in outputs]
        for check, digest, out, n in zip(checks, digests, outputs, sizes):
            failed += check(digest, out)
            attempted += n
        return digests

    gc.collect()
    mirror = checked(drive(spans.NullTracer(), False, {}))
    tracer = spans.Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    layer: Dict[str, List[float]] = {name: [] for name in SPAN_OF}
    coverage: List[float] = []
    counts: Dict[str, float] = {}
    outputs: List[bytes] = []
    started = perf_counter()
    while perf_counter() - started < seconds or len(traced) < 2:
        t0 = perf_counter()
        outputs = drive(spans.NullTracer(), False, {})
        untraced.append(perf_counter() - t0)
        checked(outputs)
        first = len(tracer)
        pass_counts: Dict[str, float] = {}
        t0 = perf_counter()
        outputs = drive(tracer, True, pass_counts)
        wall = perf_counter() - t0
        traced.append(wall - tracer.replay_time(first))
        checked(outputs)
        if counts and pass_counts != counts:
            print(f"per-layer counts differ between passes: {counts} vs {pass_counts}")
            failed += sum(sizes)
        counts = pass_counts
        own = tracer.self_times(first)
        for name, span in SPAN_OF.items():
            layer[name].append(own.get(span, 0.0))
        coverage.append(sum(t for name, t in own.items()
                            if not name.startswith(spans.GLUE_PREFIX)) / wall)
    for scheme in SCHEMES:  # parse_tagger_output minus the decode inside it
        bridge, dec = layer[f"encodings.bridge_s.{scheme}"], layer[f"encodings.decode_s.{scheme}"]
        layer[f"encodings.bridge_s.{scheme}"] = [b - d for b, d in zip(bridge, dec)]
    tracer.write(work / "spans.tsv")

    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    metrics.update(counts)
    metrics.update({name: statistics.median(values) for name, values in layer.items()})
    if wl.name == "decode":
        metrics["encodings.uas"] = decode_uas(wl, outputs)
    metrics["setup.import_s"] = setup_import
    # replays are work the traced run adds on purpose; the overhead is what
    # recording spans adds to the calls the command makes. Each traced pass
    # is set against the untraced pass just before it, which ran at nearly
    # the same machine speed.
    metrics["trace.overhead"] = statistics.median(
        t / u for t, u in zip(traced, untraced)) - 1
    metrics["trace.coverage"] = statistics.median(coverage)

    print(f"traced run: {len(traced)} traced and {len(untraced)} untraced passes in "
          f"{perf_counter() - started:.1f} s; {len(tracer)} spans in {work / 'spans.tsv'}")
    # the per-layer figures mean something only while the drive does what
    # the command does
    drift = mirror != command_digests
    print("drive output matches the command's: "
          + (f"NO ({mirror} vs {command_digests})" if drift else "yes"))
    if any(exits):
        print(f"the commands exited with {exits}")
    for name, unit in PER_LAYER.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(f"failed_frac: {failed / attempted if attempted else 1.0} "
          f"({failed} of {attempted} sentences)")
    return {
        "correct": failed == 0 and not any(exits) and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    info = machine()
    work = BUILD / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, work / "inputs")
    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    print("input properties: " + json.dumps(wl.properties, sort_keys=True))
    for name, digest in wl.digests().items():
        print(f"input sha256 {name}: {digest}")
    print("machine: " + json.dumps(info, sort_keys=True))
    result = (run_traced if args.trace else run_end_to_end)(wl, args.seconds, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
