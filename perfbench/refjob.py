"""Fixed reference job that measures how fast the machine is right now.

The benchmark runs this job as a fresh ``python3 -S`` process next to every
round of commands. The job is like the commands: interpreter start-up,
then pure-Python text and object work. It generates review sentences,
writes them as CoNLL-U, reads them back into tuples and dumps them as JSON.
It never changes with the package, so the time it takes tracks only the
speed the machine gives a process at that moment. On a shared box that
speed moves by more than half within seconds.
"""

from __future__ import annotations

import argparse  # noqa: F401  the modules treesent's command line imports
import concurrent.futures.process  # noqa: F401
import json
import re  # noqa: F401
import sys

import workloads

JOB = workloads.Params(600, 16, 0.45, 4, 90, p_negate=0.25, p_intensify=0.3, p_contrast=0.2)


def job() -> int:
    corpus = workloads.make_corpus(JOB, 0, "ref")
    text = "".join(workloads.conllu_block(s) for s in corpus)
    size = 0
    for block in text.split("\n\n"):
        rows = [tuple(line.split("\t")) for line in block.split("\n")
                if line and not line.startswith("#")]
        size += len(json.dumps([[r[0], r[1], r[2], r[3], int(r[6]) if r[6] != "_" else None]
                                for r in rows]))
    heads = [s.heads for s in corpus]
    size += sum(len(workloads.labels_for(h, ["NOUN"] * len(h), "brackets")) for h in heads)
    return size


if __name__ == "__main__":
    sys.stdout.write(f"{job()}\n")
