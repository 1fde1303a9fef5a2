#!/usr/bin/env python3
"""Peak-memory probe for one instance call, run in a fresh process by run.py.

    python3 perfbench/probe_rss.py generate MxNxSxSEED
    python3 perfbench/probe_rss.py load FILE.dcin

Prints one JSON line: the growth of the peak resident set during the call
(``ru_maxrss`` after it minus the resident set just before it) and the bytes
of the instance's A.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dcopt  # noqa: E402


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(argv: list[str]) -> int:
    op, arg = argv
    before = resident_bytes()
    if op == "generate":
        m, n, s, seed = (int(p) for p in arg.split("x"))
        inst = dcopt.generate_instance(m, n, s, noise_scale=0.01, seed=seed)
    elif op == "load":
        inst = dcopt.load_instance(arg)
    else:
        raise SystemExit(f"unknown probe {op!r}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(json.dumps({"growth_bytes": peak - before, "a_bytes": inst.A.nbytes}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
