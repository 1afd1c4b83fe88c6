#!/usr/bin/env python3
"""svsensor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mb``), with
``--trace 1`` the per-layer metrics of ``tracing.metric_names()``.  Lines
before it starting with ``#`` are information: output digests, pass times,
the host probe.  ``--quick`` runs every workload once at a small size,
traced, with all checks.  See README.md in this directory.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


SETUP_REPS = 3
# Median of worker.probe_once() on the reference host (see README.md).
# setup_s and pass_s are scaled to this host speed: the host's speed drifts
# by tens of percent over minutes, and the probe, timed between the passes,
# follows it.
REF_PROBE_S = 0.12

# One BLAS/OpenMP thread in every process, so that the benchmark's load is
# one busy thread on a host of few cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_startup(reps: int) -> list:
    """Wall times of fresh processes that import svsensor.cli."""
    times = []
    for _ in range(reps):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "import svsensor.cli"],
                       env=child_env(), check=True)
        times.append(perf_counter() - t)
    return times


class Run:
    """Passes, exit codes and digests of one benchmark run."""

    def __init__(self, wl):
        self.wl = wl
        self.pass_s = []
        self.probe_s = []
        self.rcs = []
        self.digests = []
        self.log = open(wl.work / "stderr.log", "a")

    def record(self, seconds, rcs, digests, timed=True, probes=()):
        """Keep a pass's exit codes and digests, and the host probes timed
        before it; its time only if ``timed`` (the warm-up pass is not)."""
        if timed:
            self.pass_s.append(seconds)
        self.probe_s += probes
        self.rcs += rcs
        self.digests.append(digests)

    def worker_passes(self, seconds) -> float:
        """A warm-up pass, then timed passes for ``seconds``, all in one
        worker process; returns its start-up time."""
        plan = self.wl.work / "plan.json"
        plan.write_text(json.dumps({
            "steps": self.wl.steps(), "seconds": seconds,
            "root": str(self.wl.out),
            "outputs": [str(p) for p in self.wl.outputs()]}))
        t = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                               str(plan)], env=child_env(), text=True,
                              stdout=subprocess.PIPE,
                              stderr=self.log) as proc:
            line = proc.stdout.readline()
            ready_s = perf_counter() - t
            if line.strip() != "ready":
                raise RuntimeError(f"worker did not start: {line!r}")
            for line in proc.stdout:
                doc = json.loads(line)
                self.record(doc["pass_s"], doc["rcs"], doc["digests"],
                            timed=not doc["warmup"], probes=doc["probe_s"])
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return ready_s

    def traced_passes(self, seconds, tracer):
        """Untraced and traced in-process passes, alternating."""
        from svsensor.cli import main
        from worker import digests, file_state, run_pass, written_bytes
        untraced, traced, written = [], [], 0
        start = perf_counter()
        with contextlib.redirect_stderr(self.log):
            while True:
                s, rcs = run_pass(main, self.wl.steps())
                untraced.append(s)
                self.record(s, rcs, digests(self.wl.out, self.wl.outputs()))
                before = file_state(self.wl.out)
                with tracer.installed(len(traced)):
                    s, rcs = run_pass(main, self.wl.steps())
                traced.append(s)
                written = written_bytes(before, file_state(self.wl.out))
                self.record(s, rcs, digests(self.wl.out, self.wl.outputs()))
                if perf_counter() - start >= seconds:
                    break
        overhead = statistics.median(traced) - statistics.median(untraced)
        return overhead, written

    def check(self) -> list:
        bad = []
        if any(d != self.digests[0] for d in self.digests[1:]):
            bad.append("passes with the same seed wrote different outputs")
        try:
            bad += self.wl.check()
        except Exception:  # a crash in a check is a failed check
            bad.append("check raised: " + traceback.format_exc(limit=3))
        return bad


def measure(wl, seconds, trace, quick=False, startup_s=None):
    """Set up, run passes for ``seconds``, check; return the result dict.
    ``quick`` times set-up and the host probe once; ``startup_s`` reuses a
    measured ``cli.startup_s``."""
    from tracing import Tracer, metric_names, unit_of
    from worker import host_probe
    shutil.rmtree(wl.work, ignore_errors=True)
    wl.work.mkdir(parents=True)
    ready = perf_counter() - T0
    reps = []
    for _ in range(1 if quick else SETUP_REPS):
        t = perf_counter()
        wl.prepare()
        reps.append(perf_counter() - t)
    setup_s = ready + statistics.median(reps)

    run = Run(wl)
    metrics = {}
    try:
        if trace:
            probe_reps = 1 if quick else 5
            run.probe_s += host_probe(probe_reps)
            tracer = Tracer()
            metrics["cli.startup_s"] = (statistics.median(cli_startup(3))
                                        if startup_s is None else startup_s)
            overhead, written = run.traced_passes(seconds, tracer)
            metrics.update(tracer.layer_metrics(len(run.pass_s) // 2))
            metrics["trace.overhead_s"] = overhead
            metrics["fileio.written_mb"] = written / 1e6
            RESULTS.mkdir(exist_ok=True)
            tracer.write(RESULTS / f"{wl.name}-spans.jsonl")
            run.probe_s += host_probe(probe_reps)
        else:
            # the worker's start is one sample of the fresh-import time;
            # two more make its median
            starts = [run.worker_passes(seconds)] + cli_startup(2)
            setup_s += statistics.median(starts)
            wall_s = statistics.median(run.pass_s)
            speed = REF_PROBE_S / statistics.median(run.probe_s)
            metrics = {
                "setup_s": setup_s * speed,
                "pass_s": wall_s * speed,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            }
            print(f"# {wl.name} wall setup {setup_s:.4f} s, "
                  f"pass median {wall_s:.4f} s")
    finally:
        run.log.close()
    probe_s = statistics.median(run.probe_s)
    if trace:
        metrics["host.probe_s"] = probe_s
        units = {name: unit_of(name) for name in metric_names()}
    else:
        units = END_TO_END
    metrics_out = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in units.items()}
    failures = run.check()
    for name, digest in sorted(run.digests[-1].items()):
        print(f"# digest {wl.name} {name} {digest}")
    print(f"# {wl.name} passes {len(run.pass_s)}: "
          + " ".join(f"{s:.3f}" for s in run.pass_s))
    print(f"# {wl.name} setup reps: " + " ".join(f"{s:.3f}" for s in reps))
    print(f"# {wl.name} host.probe_s median {probe_s:.4f} of "
          f"{len(run.probe_s)}, range {min(run.probe_s):.4f}"
          f"-{max(run.probe_s):.4f}")
    for f in failures:
        print(f"# CHECK FAILED {wl.name}: {f}")
    return {"correct": not failures, "attempted": len(run.rcs),
            "failed": sum(1 for rc in run.rcs if rc != 0),
            "metrics": metrics_out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload once, small, traced, all checks")
    args = ap.parse_args(argv)
    if not (SRC / "svsensor" / "__init__.py").is_file():
        print(f"error: no svsensor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import svsensor
    if Path(svsensor.__file__).resolve().parent != SRC / "svsensor":
        print(f"error: imported svsensor from {svsensor.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if not args.quick and args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    if args.quick:
        results = {}
        startup_s = cli_startup(1)[0]
        for name, workload in WORKLOADS.items():
            wl = workload(args.seed, WORK / f"quick-{name}", quick=True)
            results[name] = measure(wl, 0.0, True, quick=True,
                                    startup_s=startup_s)
            shutil.rmtree(wl.work, ignore_errors=True)
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {n: r["metrics"] for n, r in results.items()}}
    else:
        wl = WORKLOADS[args.workload](args.seed, WORK / args.workload)
        out = measure(wl, args.seconds, bool(args.trace))
        shutil.rmtree(wl.work, ignore_errors=True)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(out, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
