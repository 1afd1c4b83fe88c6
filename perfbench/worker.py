"""Run whole passes of svsensor commands in this process.

As a script it is the pass process of an in-process workload:

    python3 perfbench/worker.py PLAN.json

PLAN.json holds ``steps`` (argument lists for ``svsensor.cli.main``),
``outputs`` (files to digest after each pass, named relative to ``root``)
and ``seconds``.  The worker prints ``ready`` once ``svsensor.cli`` is
imported, then one JSON line per pass: first a warm-up pass (lazy imports,
first-call set-up), then timed passes until ``seconds`` have run (at least
one).  Before each timed pass, outside its time, the worker collects
garbage and times ``PROBE_REPS`` runs of the host probe, so that the run
can tell how fast the host was while its passes ran.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Probe runs before each timed pass: about a fifth of a pass's time.  The
# host's speed drifts over minutes; this many probes per pass follow it.
PROBE_REPS = 6


def probe_once() -> float:
    """Time of a fixed numpy kernel (random draws and a sort, like the
    program's own work), which no change to the program can alter."""
    import numpy as np
    rng = np.random.default_rng(12345)
    t = perf_counter()
    x = rng.poisson(50.0, 1 << 20) + rng.normal(0.0, 3.3, 1 << 20)
    np.sort(x)
    return perf_counter() - t


def host_probe(reps: int) -> list:
    return [probe_once() for _ in range(reps)]


def digests(root, paths) -> dict:
    """SHA-256 of each existing file, keyed by its path under ``root``."""
    out = {}
    for p in map(Path, paths):
        if not p.is_file():
            continue
        h = hashlib.sha256()
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[p.relative_to(root).as_posix()] = h.hexdigest()
    return out


def file_state(root: Path) -> dict:
    return {p: (s.st_size, s.st_mtime_ns)
            for p in root.rglob("*") if p.is_file() for s in [p.stat()]}


def written_bytes(before: dict, after: dict) -> int:
    """Bytes of the files that are new or rewritten since ``before``."""
    return sum(size for p, (size, mtime) in after.items()
               if before.get(p) != (size, mtime))


def run_pass(main, steps) -> tuple:
    """Run every step through ``main``; return (seconds, exit codes)."""
    rcs = []
    start = perf_counter()
    for argv in steps:
        try:
            rcs.append(main(argv))
        except Exception:  # a CLI process would exit 1 with this traceback
            traceback.print_exc()
            rcs.append(1)
    return perf_counter() - start, rcs


def _main(plan_path) -> int:
    plan = json.loads(Path(plan_path).read_text())
    from svsensor.cli import main
    print("ready", flush=True)
    warmup = True
    while True:
        gc.collect()
        probes = [] if warmup else host_probe(PROBE_REPS)
        seconds, rcs = run_pass(main, plan["steps"])
        print(json.dumps({"pass_s": seconds, "rcs": rcs, "warmup": warmup,
                          "probe_s": probes,
                          "digests": digests(plan["root"], plan["outputs"])}),
              flush=True)
        if warmup:
            warmup = False
            start = perf_counter()
        elif perf_counter() - start >= plan["seconds"]:
            return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1]))
