"""Command line front end.

Subcommands:
  analyze  CoNLL-U in, one JSON record per sentence out
  aspects  like analyze but records carry only the target opinions
  encode   CoNLL-U to tagger-bridge lines for the chosen scheme
  decode   tagger-bridge lines back to CoNLL-U (repair stats on stderr)
  eval     predictions + gold JSON-lines to a metrics report
  bench    throughput benchmark over a synthetic or file corpus
  gen      write a synthetic corpus (bridge lines or CoNLL-U)

Settings resolve in three layers: built-in defaults, then a key=value
config file (--config), then explicit flags. Lexicon paths that do not
exist as given are retried under $TREESENT_LEXICON_DIR ($SALSA_LEXICON_DIR,
its former name, is still read when the new one is unset, for one more
release). Exit codes: 0 on success, 1 for data errors under the abort
policy, 2 for config errors. analyze, aspects and encode stream through one
ordered pool of --workers processes; decode runs in one whatever --workers says.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque, namedtuple
from contextlib import closing, contextmanager
from functools import partial
from itertools import chain, islice

from . import __version__
from .conllu import (
    UNREADABLE,
    ConlluError,
    ReadStats,
    _parse_block,
    format_sentence,
    iter_raw_lines,
    read_conllu,
    settings_lines,
    split_blocks,
)
from .encodings import (
    BridgeStats,
    NonProjectiveError,
    Scheme,
    UnreadableFieldError,
    encode,
    format_tagger_line,
    parse_tagger_output,
)
from .tree import DataError, DepTree, _Record

# The lexicon, rules, assets, json, evaluation, bench and concurrent.futures
# modules are imported where they are used: encode and decode start without
# any of them, analyze without the last three.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import (
        IO, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    )

    from .conllu import Block
    from .lexicon import PolarityLexicon
    from .rules import RuleConfig

LEXICON_DIR_ENV = "TREESENT_LEXICON_DIR"
# the former name, read only when LEXICON_DIR_ENV is unset; to be removed
FORMER_LEXICON_DIR_ENV = "SALSA_LEXICON_DIR"


class ConfigError(ValueError):
    """Bad settings: unknown keys, unreadable files, invalid values."""


class PipelineConfig(_Record, frozen=True):
    """Resolved settings shared by every subcommand."""

    _fields = ("language", "lexicon", "domain_lexicon", "rules", "scheme", "input", "output",
               "on_error", "workers", "seed")

    def __init__(
        self,
        language: str = "en",
        lexicon: Optional[str] = None,
        domain_lexicon: Optional[str] = None,
        rules: Optional[str] = None,
        scheme: Scheme = Scheme.REL_OFFSET,
        input: Optional[str] = None,
        output: Optional[str] = None,
        on_error: str = "abort",
        workers: int = 1,
        seed: int = 0,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"worker count must be >= 1, got {workers}")
        if on_error not in ("skip", "abort"):
            raise ConfigError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
        self.__dict__.update(
            language=language, lexicon=lexicon, domain_lexicon=domain_lexicon, rules=rules,
            scheme=scheme, input=input, output=output, on_error=on_error, workers=workers,
            seed=seed,
        )

    def load_lexicon(self) -> PolarityLexicon:
        from .assets import demo_lexicon
        from .lexicon import LexiconError, load_lexicon

        try:
            if self.lexicon is None:
                lexicon = demo_lexicon(self.language)
            else:
                lexicon = load_lexicon(_find_lexicon(self.lexicon), language=self.language)
            if self.domain_lexicon is not None:
                overlay = load_lexicon(
                    _find_lexicon(self.domain_lexicon), language=self.language
                )
                lexicon = lexicon.overlay(overlay)
            return lexicon
        except LexiconError as exc:
            raise ConfigError(f"lexicon: {exc}") from None

    def load_rules(self) -> RuleConfig:
        from .rules import RuleConfig, RuleError

        if self.rules is None:
            return RuleConfig()
        if not os.path.isfile(self.rules):
            raise ConfigError(f"rule config file not found: {self.rules}")
        try:
            return RuleConfig.from_file(self.rules)
        except RuleError as exc:
            raise ConfigError(f"rule config: {exc}") from None


def _find_lexicon(path: str) -> str:
    if os.path.isfile(path):
        return path
    search_dir = os.environ.get(LEXICON_DIR_ENV, os.environ.get(FORMER_LEXICON_DIR_ENV))
    if search_dir:
        fallback = os.path.join(search_dir, path)
        if os.path.isfile(fallback):
            return fallback
        raise ConfigError(
            f"lexicon file not found: {path} (also tried {fallback})"
        )
    raise ConfigError(f"lexicon file not found: {path}")


# a config file and the command line set the same keys: the settings' fields
_CONFIG_KEYS = PipelineConfig._fields
# how a config file's text becomes each value that is not text
_CONFIG_TYPES = {"workers": int, "seed": int, "scheme": Scheme.parse}


def _read_config_file(path: str) -> Dict[str, object]:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values: Dict[str, object] = {}
    for lineno, key, value in settings_lines(
        path, lambda message, lineno: ConfigError(f"{path}:{lineno}: {message}")
    ):
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = _CONFIG_TYPES.get(key, str)(value)
            PipelineConfig(**{key: values[key]})  # the field's own checks, while its line is known
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return values


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """defaults, then config file entries, then explicit flags."""
    merged = _read_config_file(args.config) if getattr(args, "config", None) else {}
    try:
        for key in _CONFIG_KEYS:
            flag = getattr(args, key, None)
            if flag is not None:
                merged[key] = _CONFIG_TYPES.get(key, str)(flag)
    except ValueError as exc:  # --scheme; argparse has checked the others
        raise ConfigError(str(exc)) from None
    return PipelineConfig(**merged)  # type: ignore[arg-type]


def _same_file(first: str, second: str) -> bool:
    try:
        return os.path.samefile(first, second)
    except OSError:  # either one missing
        return False


@contextmanager
def _open_output(cfg: PipelineConfig) -> Iterator[IO[str]]:
    if cfg.output is None:
        yield sys.stdout
    else:
        # the input is read lazily, so truncating it first would lose it
        if cfg.input is not None and _same_file(cfg.output, cfg.input):
            raise ConfigError(f"output file {cfg.output} is the input file {cfg.input}")
        try:
            handle = open(cfg.output, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {cfg.output}: {exc.strerror}") from None
        with handle:
            yield handle


def _input_source(cfg: PipelineConfig):
    if cfg.input is None:
        # bytes, so that a line that is not UTF-8 fails as data, with its line number
        return getattr(sys.stdin, "buffer", sys.stdin)
    if not os.path.isfile(cfg.input):
        raise ConfigError(f"input file not found: {cfg.input}")
    return cfg.input


# ------------------------------------------------- analyze, aspects, encode
# A run turns each valid CoNLL-U tree into one output line with a function
# bound once per run, with ``partial`` over the module-level functions below
# so that it pickles to the pool. The record functions are passed
# ``rules.analyze`` or ``rules.baseline_wordcount``, so a sentence imports nothing.


class _Skip(Exception):
    """``(message, reason)``: a valid tree has no output line; ``reason`` is its tally."""


# encode's skip reasons by error type, in the order their tallies are printed
_ENCODE_SKIPS = {
    NonProjectiveError: "non-projective sentences",
    ValueError: "sentences with whitespace inside a field",
    UnreadableFieldError: "sentences with a field that would read back wrong",
}


def _opinions(result) -> list:
    return [
        {
            "target": [op.target_token_ids[0], op.target_token_ids[-1]],
            "text": op.target_text,
            "polarity": op.opinion_class,
            "valence": op.valence,
            "evidence": list(op.evidence_token_ids),
        }
        for op in result.opinions
    ]


def _scored(tree: DepTree, result) -> dict:
    return {
        "sent_id": tree.sentence_id,
        "class": result.sentence_class,
        "valence": result.sentence_valence,
        "opinions": _opinions(result),
    }


def _analyze_record(analyze: Callable, lexicon, rules_cfg, tree: DepTree) -> dict:
    return _scored(tree, analyze(tree, lexicon, rules_cfg, trace=False))


def _explain_record(analyze: Callable, lexicon, rules_cfg, tree: DepTree) -> dict:
    result = analyze(tree, lexicon, rules_cfg, trace=True)
    trace = [[step.token_id, step.rule, step.before, step.after, step.note]
             for step in result.trace]
    return {**_scored(tree, result), "trace": trace}


def _aspects_record(analyze: Callable, lexicon, rules_cfg, tree: DepTree) -> dict:
    result = analyze(tree, lexicon, rules_cfg, trace=False)
    return {"sent_id": tree.sentence_id, "opinions": _opinions(result)}


def _baseline_record(baseline: Callable, lexicon, rules_cfg, tree: DepTree) -> dict:
    valence, label = baseline(tree, lexicon, rules_cfg)
    return {"sent_id": tree.sentence_id, "class": label, "valence": valence, "baseline": True}


def _json_line(
    to_json: Callable[[dict], str], record: Callable[[DepTree], dict], tree: DepTree
) -> str:
    fields = record(tree)
    try:
        return to_json(fields) + "\n"
    except ValueError:  # an overflowed score
        raise _Skip("score is not a finite number", UNREADABLE) from None


def _bridge_line(scheme: Scheme, tree: DepTree) -> str:
    try:
        return format_tagger_line(tree, encode(tree, scheme)) + "\n"
    except ValueError as exc:  # crossing arcs, or a field the line cannot carry
        reason = _ENCODE_SKIPS.get(type(exc), _ENCODE_SKIPS[ValueError])
        raise _Skip(str(exc), reason) from None


class _Job(namedtuple("_Job", "line on_error")):
    """What one run does to each sentence, and what it does when one fails:
    ``line(tree)`` raises _Skip for a tree with no line, ``on_error`` is the policy."""

    __slots__ = ()

    def lines(self, blocks: Iterable[Block], stats: ReadStats) -> Iterator[str]:
        """One output line per sentence that is read and has one, in block order."""
        for ordinal, block in blocks:
            try:
                line = self.line(_parse_block(block, ordinal, stats))
            except ConlluError:
                if self.on_error == "abort":
                    raise
                stats.skip(UNREADABLE)
                continue
            except _Skip as exc:
                message, reason = exc.args
                if self.on_error == "abort":
                    raise ConlluError(message, ordinal, block[0][0]) from None
                stats.skip(reason)
                continue
            stats.sentences += 1
            yield line


# Sentences per pool task. Large enough that a task's pickling and
# scheduling cost is small beside its work, small enough that the first
# records come out early and the pool holds little memory.
CHUNK_SENTENCES = 64

_worker_job: Optional[_Job] = None  # set once in each pool worker


def _start_worker(job: _Job) -> None:
    global _worker_job
    _worker_job = job


def _run_chunk(blocks: List[Block]) -> Tuple[List[str], ReadStats, Optional[ConlluError]]:
    """Pool task: the chunk's output lines, its read tallies, and its first error.

    Lines before a bad sentence are returned with its error, so the parent
    writes exactly what a single process would before it stops.
    """
    stats, lines = ReadStats(), []
    try:
        for line in _worker_job.lines(blocks, stats):
            lines.append(line)
    except ConlluError as exc:
        return lines, stats, exc
    return lines, stats, None


def _map_chunks(fn, chunks: Iterable, workers: int, initializer, initargs) -> Iterator:
    """``fn`` over ``chunks`` in a process pool, results in submission order.

    At most ``2 * workers`` chunks are in flight, so memory stays bounded
    however long the input is. Closing the generator early cancels the
    chunks not yet started.
    """
    from concurrent.futures import Future, ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, initializer=initializer, initargs=initargs)
    pending: Deque[Future] = deque()
    try:
        for chunk in chunks:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, chunk))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _write_records(
    job: _Job, blocks: Iterator[Block], workers: int, stats: ReadStats, out: IO[str]
) -> None:
    """Run ``job`` over ``blocks`` and write its lines to ``out`` as they are finished.

    With one worker, or input of at most one chunk, everything runs in
    this process. Otherwise this process only splits the input and writes;
    raw blocks go to the pool and finished lines come back.
    """
    if workers > 1:
        chunks = iter(lambda: list(islice(blocks, CHUNK_SENTENCES)), [])
        head = list(islice(chunks, 2))
        if len(head) == 2:
            results = _map_chunks(
                _run_chunk, chain(head, chunks), workers, _start_worker, (job,)
            )
            with closing(results):
                for lines, counts, error in results:
                    out.writelines(lines)
                    stats.add(counts)
                    if error is not None:
                        raise error
            return
        blocks = chain.from_iterable(head)
    out.writelines(job.lines(blocks, stats))


def _run_job(cfg: PipelineConfig, line: Callable[[DepTree], str]) -> int:
    """Write ``line`` of each sentence of the input, then the skip tallies."""
    stats = ReadStats()
    blocks = split_blocks(iter_raw_lines(_input_source(cfg)))
    with _open_output(cfg) as out:
        _write_records(_Job(line, cfg.on_error), blocks, cfg.workers, stats, out)
    for reason in (UNREADABLE, *_ENCODE_SKIPS.values()):
        if stats.skipped_by[reason]:
            print(f"skipped {stats.skipped_by[reason]} {reason}", file=sys.stderr)
    return 0


def cmd_analyze(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    from json import JSONEncoder

    from .rules import analyze, baseline_wordcount

    scoring = (cfg.load_lexicon(), cfg.load_rules())
    if args.command == "aspects":
        record = partial(_aspects_record, analyze, *scoring)
    elif args.baseline:
        record = partial(_baseline_record, baseline_wordcount, *scoring)
    elif args.explain:
        record = partial(_explain_record, analyze, *scoring)
    else:
        record = partial(_analyze_record, analyze, *scoring)
    to_json = JSONEncoder(ensure_ascii=False, allow_nan=False).encode
    return _run_job(cfg, partial(_json_line, to_json, record))


def cmd_encode(cfg: PipelineConfig) -> int:
    return _run_job(cfg, partial(_bridge_line, cfg.scheme))


# ------------------------------------------------------------------- decode


def _with_sent_id_comment(tree: DepTree) -> DepTree:
    """The same valid tree, sharing its columns, with its id as the only comment."""
    return DepTree._trusted(
        tree.forms, tree.lemmas, tree.upos, tree.heads, tree.deprels,
        tree.sentence_id, {"sent_id": tree.sentence_id},
    )


def cmd_decode(cfg: PipelineConfig) -> int:
    stats = BridgeStats()
    source = _input_source(cfg)  # before the output is opened, which empties it
    with _open_output(cfg) as out:
        for _, result in parse_tagger_output(source, cfg.scheme, on_error=cfg.on_error,
                                             stats=stats):
            out.write(format_sentence(_with_sent_id_comment(result.tree)) + "\n\n")
    repairs = stats.repairs
    print(
        f"decoded {stats.records} sentences, repairs total={repairs.total} "
        f"(out_of_range={repairs.out_of_range}, extra_roots={repairs.extra_roots}, "
        f"missing_root={repairs.missing_root}, cycles_broken={repairs.cycles_broken}), "
        f"skipped={stats.skipped}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------- eval


def cmd_eval(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    import json

    from .evaluation import (
        EvalError,
        MetricsReport,
        conversion_coverage,
        eval_parse,
        eval_sentences,
        eval_targets,
        load_gold,
        load_predictions,
    )

    for path in (args.pred, args.gold):
        if not os.path.isfile(path):
            raise ConfigError(f"file not found: {path}")
    gold_records = list(load_gold(args.gold))
    preds = load_predictions(args.pred)
    strict = cfg.on_error == "abort"

    pred_labels, gold_labels = [], []
    for record in gold_records:
        if record.gold_class is None:
            continue
        entry = preds.get(record.sentence_id)
        if entry is None or entry["class"] is None:
            if strict:
                raise EvalError(f"no predicted class for {record.sentence_id!r}")
            continue
        pred_labels.append(entry["class"])
        gold_labels.append(record.gold_class)
    sentence_metrics = eval_sentences(pred_labels, gold_labels) if gold_labels else None

    gold_sets = {
        record.sentence_id: record.gold_opinions
        for record in gold_records
        if record.gold_opinions is not None
    }
    targets_exact = targets_overlap = None
    if gold_sets:
        pred_map = {}
        for sid in gold_sets:
            entry = preds.get(sid)
            if entry is None:
                if strict:
                    raise EvalError(f"no prediction record for {sid!r}")
                continue
            pred_map[sid] = entry["items"]
        targets_exact = eval_targets(pred_map, gold_sets, mode="exact")
        targets_overlap = eval_targets(pred_map, gold_sets, mode="overlap")

    parse_metrics = None
    if getattr(args, "pred_parse", None):
        if not os.path.isfile(args.pred_parse):
            raise ConfigError(f"file not found: {args.pred_parse}")
        by_id = {
            tree.sentence_id: tree
            for tree in read_conllu(args.pred_parse, on_error="abort")
        }
        pred_trees, gold_trees = [], []
        for record in gold_records:
            if record.parse is None:
                continue
            tree = by_id.get(record.sentence_id)
            if tree is None:
                if strict:
                    raise EvalError(f"no predicted parse for {record.sentence_id!r}")
                continue
            pred_trees.append(tree)
            gold_trees.append(record.parse)
        if not gold_trees:
            raise EvalError("gold file has no parses to score against")
        parse_metrics = eval_parse(pred_trees, gold_trees)

    report = MetricsReport(
        sentences=len(gold_records),
        opinions=sum(len(s.opinions) for s in gold_sets.values()),
        conversion_coverage=conversion_coverage(gold_sets.values()),
        sentence=sentence_metrics,
        targets_exact=targets_exact,
        targets_overlap=targets_overlap,
        parse=parse_metrics,
    )
    with _open_output(cfg) as out:
        out.write(
            json.dumps(report.to_dict(), ensure_ascii=False, indent=2, allow_nan=False) + "\n"
        )
    return 0


# ----------------------------------------------------------------- bench/gen


@contextmanager
def _bench_errors() -> Iterator[None]:
    """A bad benchmark or corpus parameter is a config error."""
    from .bench import BenchError

    try:
        yield
    except BenchError as exc:
        raise ConfigError(str(exc)) from None


def cmd_bench(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    import json

    from .bench import run_bench, synthetic_corpus

    lexicon = cfg.load_lexicon()
    rules_cfg = cfg.load_rules()
    with _bench_errors():
        if cfg.input is not None:
            source = _input_source(cfg)
        else:
            source = list(
                synthetic_corpus(
                    args.sentences, args.length, lexicon, seed=cfg.seed, scheme=cfg.scheme
                )
            )
        report = run_bench(
            source,
            lexicon,
            rules_cfg,
            scheme=cfg.scheme,
            workers=cfg.workers,
            warmup=args.warmup,
        )
    with _open_output(cfg) as out:
        out.write(json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")
    return 0


def cmd_gen(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    from .bench import synthetic_corpus, synthetic_trees

    lexicon = cfg.load_lexicon()
    with _bench_errors():
        # both generators check their arguments when called, so bad ones
        # raise before the output is opened and leave an -o file as it was
        if args.format == "bridge":
            lines = synthetic_corpus(
                args.sentences, args.length, lexicon, seed=cfg.seed, scheme=cfg.scheme
            )
            records = (line + "\n" for line in lines)
        else:
            trees = synthetic_trees(args.sentences, args.length, lexicon, seed=cfg.seed)
            records = (format_sentence(_with_sent_id_comment(tree)) + "\n\n" for tree in trees)
        with _open_output(cfg) as out:
            out.writelines(records)
    return 0


# ------------------------------------------------------------------- parser


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value settings file")
    parser.add_argument("--language", help="lexicon language code (default en)")
    parser.add_argument("--lexicon", help="base lexicon TSV (default: built-in demo)")
    parser.add_argument("--domain-lexicon", dest="domain_lexicon", help="overlay lexicon TSV")
    parser.add_argument("--rules", help="rule engine key=value config file")
    parser.add_argument(
        "--scheme", help="label scheme: rel-offset, rel-pos, or brackets"
    )
    parser.add_argument("-i", "--input", help="input path (default: stdin)")
    parser.add_argument("-o", "--output", help="output path (default: stdout)")
    parser.add_argument(
        "--on-error", dest="on_error", choices=("skip", "abort"),
        help="bad-sentence policy (default abort)",
    )
    parser.add_argument("--workers", type=int, help="parallel worker count")
    parser.add_argument("--seed", type=int, help="random seed for synthetic data")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesent",
        description="Sentiment analysis over dependency trees, plus the "
        "label encodings that let a tagger produce those trees.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="score sentences from CoNLL-U")
    _add_common_flags(analyze)
    analyze.add_argument("--explain", action="store_true", help="include rule traces")
    analyze.add_argument(
        "--baseline", action="store_true", help="syntax-free word-count scoring"
    )

    aspects = commands.add_parser("aspects", help="emit only per-target opinions")
    _add_common_flags(aspects)

    encode_cmd = commands.add_parser("encode", help="CoNLL-U to tagger bridge lines")
    _add_common_flags(encode_cmd)

    decode_cmd = commands.add_parser("decode", help="tagger bridge lines to CoNLL-U")
    _add_common_flags(decode_cmd)

    eval_cmd = commands.add_parser("eval", help="score predictions against gold")
    _add_common_flags(eval_cmd)
    eval_cmd.add_argument("--pred", required=True, help="predictions JSON-lines file")
    eval_cmd.add_argument("--gold", required=True, help="gold JSON-lines file")
    eval_cmd.add_argument(
        "--pred-parse", dest="pred_parse", help="predicted parses (CoNLL-U) for UAS/LAS"
    )

    bench = commands.add_parser("bench", help="throughput benchmark")
    _add_common_flags(bench)
    bench.add_argument("--sentences", type=int, default=10_000, help="synthetic corpus size")
    bench.add_argument("--length", type=int, default=20, help="synthetic sentence length")
    bench.add_argument("--warmup", type=int, default=50, help="untimed warmup sentences")

    gen = commands.add_parser("gen", help="write a synthetic corpus")
    _add_common_flags(gen)
    gen.add_argument("--sentences", type=int, default=1000, help="corpus size")
    gen.add_argument("--length", type=int, default=20, help="sentence length")
    gen.add_argument(
        "--format", choices=("bridge", "conllu"), default="bridge", help="output format"
    )
    return parser


def _run(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    if args.command in ("analyze", "aspects"):
        return cmd_analyze(cfg, args)
    if args.command == "encode":
        return cmd_encode(cfg)
    if args.command == "decode":
        return cmd_decode(cfg)
    if args.command == "eval":
        return cmd_eval(cfg, args)
    if args.command == "bench":
        return cmd_bench(cfg, args)
    return cmd_gen(cfg, args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(_build_config(args), args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout went away (``| head``): stop quietly, and point
        # stdout at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
