"""Span tracing from outside the program.

``Tracer.installed()`` replaces each listed svsensor function with a timer,
in every svsensor module namespace that holds a reference to it, and puts
the originals back on exit; the source is never touched.  Spans stay in
memory as (pass id, name, start, end, parent index) until the run writes
them out as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter

# (module, function, metric prefix, calls other listed layers, pixels per call)
LAYERS = [
    ("svsensor.cli", "cmd_simulate", "cli.simulate", True, None),
    ("svsensor.cli", "cmd_plan_gain", "cli.plan_gain", True, None),
    ("svsensor.cli", "cmd_plan_bin", "cli.plan_bin", True, None),
    ("svsensor.cli", "cmd_capture", "cli.capture", True, None),
    ("svsensor.cli", "cmd_compose", "cli.compose", True, None),
    ("svsensor.cli", "cmd_calibrate", "cli.calibrate", True, None),
    ("svsensor.cli", "cmd_evaluate", "cli.evaluate", True, None),
    ("svsensor.scenes", "load_and_normalize", "scenes.load_and_normalize", True, None),
    ("svsensor.fileio", "save_capture", "fileio.save_capture", False, None),
    ("svsensor.fileio", "load_capture", "fileio.load_capture", False, None),
    ("svsensor.fileio", "read_pfm", "fileio.read_pfm", False, None),
    ("svsensor.fileio", "write_pfm", "fileio.write_pfm", False, None),
    ("svsensor.fileio", "load_gain_stack", "fileio.load_gain_stack", True, None),
    ("svsensor.sensor", "simulate_capture", "sensor.simulate_capture", True, None),
    ("svsensor.sensor", "draw_photons", "sensor.draw_photons", False, None),
    ("svsensor.sensor", "quantize", "sensor.quantize", False, None),
    ("svsensor.sensor", "estimate_photons", "sensor.estimate_photons", False, None),
    ("svsensor.readout", "capture_spatially_varying",
     "readout.capture_spatially_varying", True, None),
    ("svsensor.readout", "compose_from_gain_stack",
     "readout.compose_from_gain_stack", False, None),
    ("svsensor.gain", "capture_adaptive", "gain.capture_adaptive", True,
     lambda args, kwargs: args[0].data.size),
    ("svsensor.gain", "plan_gain_roi", "gain.plan_gain_roi", False, None),
    ("svsensor.gain", "quantize_to_ladder", "gain.quantize_to_ladder", False, None),
    ("svsensor.theory", "optimal_pitch", "theory.optimal_pitch", True, None),
    ("svsensor.theory", "cutoff_frequency", "theory.cutoff_frequency", False, None),
    ("svsensor.theory", "light_to_bin_lut", "theory.light_to_bin_lut", True, None),
    ("svsensor.metrics", "evaluate_protocol", "metrics.evaluate_protocol", True, None),
    ("svsensor.metrics", "ssim", "metrics.ssim", False, None),
    ("svsensor.metrics", "psnr", "metrics.psnr", False, None),
    ("svsensor.metrics", "gamma_correct", "metrics.gamma_correct", False, None),
    ("svsensor.calibrate", "dark_variance", "calibrate.dark_variance", False, None),
    ("svsensor.calibrate", "fit_read_noise", "calibrate.fit_read_noise", False, None),
]

# metrics measured by the run itself rather than derived from spans
RUN_METRICS = ["cli.startup_s", "host.probe_s", "trace.overhead_s",
               "fileio.written_mb", "gain.capture_adaptive_mpix_per_s"]


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for _, _, prefix, has_children, _ in LAYERS:
        names += [f"{prefix}_s", f"{prefix}_calls"]
        if has_children:
            names.append(f"{prefix}_self_s")
    return names + RUN_METRICS


def unit_of(name: str) -> str:
    for suffix, unit in (("_calls", "count"), ("_mpix_per_s", "Mpix/s"),
                         ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


class Tracer:
    def __init__(self):
        self.spans = []      # [pass id, name, start, end, parent index]
        self.pixels = {}     # name -> pixels handled
        self.pass_id = -1
        self._stack = []

    def _wrap(self, name, fn, size_of):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if size_of is not None:
                self.pixels[name] = self.pixels.get(name, 0) + size_of(args, kwargs)
            idx = len(self.spans)
            span = [self.pass_id, name, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
        return timed

    @contextlib.contextmanager
    def installed(self, pass_id: int):
        """Patch every listed function for the duration of one pass."""
        self.pass_id = pass_id
        modules = [m for n, m in list(sys.modules.items())
                   if n == "svsensor" or n.startswith("svsensor.")]
        patched = []
        for mod_name, attr, prefix, _, size_of in LAYERS:
            orig = getattr(sys.modules[mod_name], attr)
            timed = self._wrap(prefix, orig, size_of)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, timed)
                        patched.append((mod, key, orig))
        try:
            yield
        finally:
            for mod, key, orig in patched:
                setattr(mod, key, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for pass_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"pass": pass_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self, n_passes: int) -> dict:
        """Per-pass time, self time (minus wrapped children) and calls."""
        total, calls, child = {}, {}, {}
        for _, name, start, end, parent in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][1]
                child[pname] = child.get(pname, 0.0) + dur
        out = {}
        for _, _, prefix, has_children, _ in LAYERS:
            out[f"{prefix}_s"] = total.get(prefix, 0.0) / n_passes
            out[f"{prefix}_calls"] = calls.get(prefix, 0) / n_passes
            if has_children:
                out[f"{prefix}_self_s"] = (total.get(prefix, 0.0)
                                           - child.get(prefix, 0.0)) / n_passes
        t = total.get("gain.capture_adaptive", 0.0)
        px = self.pixels.get("gain.capture_adaptive", 0)
        out["gain.capture_adaptive_mpix_per_s"] = px / 1e6 / t if t > 0 else 0.0
        return out
