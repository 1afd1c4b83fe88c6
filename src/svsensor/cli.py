"""Command-line interface.

Subcommands: simulate, plan-gain, plan-bin, capture, compose, calibrate,
theory, evaluate.  Exit codes: 0 success, 2 usage error, else the raised
error's ``exit_code`` (see ``errors``).  Diagnostics go to stderr; data goes
to the requested files or stdout.  Every stochastic subcommand requires an
explicit nonnegative --seed so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict

import numpy as np

from . import fileio
from .calibrate import dark_variance, fit_read_noise
from .errors import ConfigError, DataError, NumericalError
from .gain import GainMap, capture_adaptive, gain_from_vignetting, plan_gain_roi, quantize_to_ladder
from .metrics import METHODS, evaluate_protocol
from .readout import BinMap, compose_from_gain_stack, plan_bin_roi
from .scenes import SceneSpec, load_and_normalize
from .sensor import BIN_MODES, RadianceMap, SensorConfig, estimate_photons, simulate_capture
from .theory import TheoryParams, light_to_bin_lut, sweep_pitch

EXIT_OK = 0
EXIT_USAGE = 2  # argparse's own exit code


def _load_config(path) -> SensorConfig:
    if path is None:
        return SensorConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read sensor config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"sensor config {path} is not UTF-8: {exc}") from exc
    return SensorConfig.from_json(text)


def _load_scene(path, config, mean_frac) -> RadianceMap:
    spec = SceneSpec(source="pfm", path=path, mean_level_frac=mean_frac)
    return load_and_normalize(spec, config)


def _float_list(text):
    try:
        return tuple(float(t) for t in text.split(",") if t)
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers: {exc}") from exc


def cmd_simulate(args, config) -> int:
    scene = _load_scene(args.scene, config, args.mean_frac)
    raw = simulate_capture(scene, args.gain, None, config, seed=args.seed)
    return _save_capture(args, raw, config)


def _save_capture(args, raw, config) -> int:
    fileio.save_capture(args.output, raw)
    if args.estimate:
        fileio.write_pfm(args.estimate, estimate_photons(raw, config).data)
    return EXIT_OK


def cmd_plan_gain(args, config) -> int:
    if args.vignetting:
        vignette = fileio.read_pfm(args.vignetting)
        gm = gain_from_vignetting(vignette, args.roi_size, args.eta, config)
        report = None
    else:
        if not args.pilot:
            raise ConfigError("plan-gain needs --pilot or --vignetting")
        raw = fileio.load_capture(args.pilot, config)
        snapshot = estimate_photons(raw, config)
        gm, report = plan_gain_roi(snapshot, args.roi_size, args.eta, config)
    if args.ladder:
        gm = quantize_to_ladder(gm, _float_list(args.ladder))
    doc = gm.to_json_dict()
    if report is not None:
        doc["report"] = {
            "predicted_saturation_frac": report.predicted_saturation_frac,
            "empty_rois": report.empty_rois,
        }
    fileio.save_json(args.output, doc)
    return EXIT_OK


def cmd_plan_bin(args, config) -> int:
    raw = fileio.load_capture(args.pilot, config)
    snapshot = estimate_photons(raw, config)
    bm = plan_bin_roi(snapshot, args.roi_size, args.mode, config, args.snr_t,
                      args.gain)
    fileio.save_json(args.output, bm.to_json_dict())
    return EXIT_OK


def cmd_capture(args, config) -> int:
    scene = _load_scene(args.scene, config, args.mean_frac)
    if args.per_pixel_eta is not None:
        if args.gain_map or args.bin_map:
            raise ConfigError("--per-pixel-eta sets its own gains; it takes "
                              "no --gain-map or --bin-map")
        raw, report = capture_adaptive(scene, args.per_pixel_eta, config,
                                       seed=args.seed)
        print(f"saturation_frac {report.measured_saturation_frac:.6f}",
              file=sys.stderr)
    else:
        if not args.gain_map:
            raise ConfigError("capture needs --gain-map or --per-pixel-eta")
        gm = GainMap.from_json_dict(fileio.load_json(args.gain_map))
        bm = (BinMap.from_json_dict(fileio.load_json(args.bin_map))
              if args.bin_map else None)
        raw = simulate_capture(scene, gm, bm, config, seed=args.seed)
    return _save_capture(args, raw, config)


def cmd_compose(args, config) -> int:
    stack = fileio.load_gain_stack(args.stack, config)
    gm = GainMap.from_json_dict(fileio.load_json(args.gain_map))
    if args.snap:
        gm = quantize_to_ladder(gm, stack.gains)
    raw, provenance = compose_from_gain_stack(stack, gm)
    fileio.save_capture(args.output, raw)
    print("frame provenance:", provenance.tolist(), file=sys.stderr)
    return EXIT_OK


def cmd_calibrate(args, config) -> int:
    manifest = fileio.load_json(args.manifest)
    try:
        entries = [(float(e["gain"]), list(e["frames"]))
                   for e in manifest["gains"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"calibrate manifest {args.manifest}: every entry of "
                        f"'gains' needs a 'gain' and a 'frames' list ({exc!r})"
                        ) from exc
    samples = []
    for g, paths in entries:
        frames = [fileio.read_pgm16(p) for p in paths]
        samples.append((g, dark_variance(frames)))
    profile = fit_read_noise(samples, config if args.electrons else None)
    fileio.save_json(args.output, asdict(profile))
    return EXIT_OK


def cmd_theory(args, config) -> int:
    pitches = _float_list(args.pitches)
    lights = _float_list(args.lights)
    params = TheoryParams(snr_t=args.snr_t, pitch_candidates=pitches,
                          light_grid=lights)
    curve = sweep_pitch(params, config, gain=args.gain)
    rows = ["l0,p,f_cutoff"]
    for i, l0 in enumerate(curve.lights):
        for j, p in enumerate(curve.pitches):
            fc = curve.cutoffs[i, j]
            rows.append(f"{l0:.9g},{p:.9g},"
                        f"{'' if np.isnan(fc) else format(fc, '.9g')}")
    rows.append("l0,p_star,N")
    for i, l0 in enumerate(curve.lights):
        ps = curve.best_pitch[i]
        if np.isnan(ps):
            rows.append(f"{l0:.9g},,")
        else:
            n = int(round((ps / pitches[0]) ** 2))
            rows.append(f"{l0:.9g},{ps:.9g},{n}")
    text = "\n".join(rows) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        fileio.write_text(args.output, text)
    if args.lut_out:
        lut = light_to_bin_lut(params, config, pitches[0], gain=args.gain)
        fileio.save_json(args.lut_out, lut.to_json_dict())
    return EXIT_OK


def cmd_evaluate(args, config) -> int:
    scene = _load_scene(args.scene, config, args.mean_frac)
    methods = tuple(args.methods.split(",")) if args.methods else METHODS
    report = evaluate_protocol(scene, config, roi_size=args.roi_size,
                               methods=methods, seed=args.seed,
                               eta=args.eta, snr_t=args.snr_t,
                               dump_dir=args.dump_dir)
    fileio.save_json(args.output, report.to_json_dict())
    if args.csv:
        fileio.write_text(args.csv, "\n".join(report.csv_rows()) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="svsensor")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--config", help="sensor config JSON")
        if seeded:
            p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("simulate", help="capture a scene at one gain")
    common(p)
    p.add_argument("scene", help="radiance map PFM")
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--mean-frac", type=float, default=None,
                   help="normalize scene mean to this fraction of full well")
    p.add_argument("--output", required=True, help="capture base path")
    p.add_argument("--estimate", help="write photon estimate PFM here")

    p = sub.add_parser("plan-gain", help="plan per-ROI gains")
    common(p, seeded=False)
    p.add_argument("--pilot", help="pilot capture base path")
    p.add_argument("--vignetting", help="transmission map PFM")
    p.add_argument("--roi-size", type=int, default=128)
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--ladder", help="comma-separated discrete gains to snap onto")
    p.add_argument("--output", required=True)

    p = sub.add_parser("plan-bin", help="plan per-ROI bin factors")
    common(p, seeded=False)
    p.add_argument("--pilot", required=True)
    p.add_argument("--roi-size", type=int, default=128)
    p.add_argument("--snr-t", type=float, default=4.0)
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--mode", choices=BIN_MODES, default="additive")
    p.add_argument("--output", required=True)

    p = sub.add_parser("capture", help="spatially-varying capture")
    common(p)
    p.add_argument("scene")
    p.add_argument("--gain-map")
    p.add_argument("--bin-map")
    p.add_argument("--per-pixel-eta", type=float, default=None,
                   help="closed-loop per-pixel gain with this headroom")
    p.add_argument("--mean-frac", type=float, default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--estimate")

    p = sub.add_parser("compose", help="composite a capture from a gain stack")
    common(p, seeded=False)
    p.add_argument("--stack", required=True, help="gain stack directory")
    p.add_argument("--gain-map", required=True)
    p.add_argument("--snap", action="store_true",
                   help="snap the plan down onto the stack gains first")
    p.add_argument("--output", required=True)

    p = sub.add_parser("calibrate", help="fit read noise from dark frames")
    common(p, seeded=False)
    p.add_argument("--manifest", required=True,
                   help="JSON: {gains: [{gain, frames: [pgm...]}]}")
    p.add_argument("--electrons", action="store_true",
                   help="convert the fit to electron units")
    p.add_argument("--output", required=True)

    p = sub.add_parser("theory", help="cutoff-frequency and pitch sweep CSV")
    common(p, seeded=False)
    p.add_argument("--snr-t", type=float, default=4.0)
    p.add_argument("--pitches", required=True, help="comma-separated, ascending")
    p.add_argument("--lights", required=True, help="comma-separated, ascending")
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--output", default="-", help="CSV path or - for stdout")
    p.add_argument("--lut-out", help="also write the light-to-bin LUT JSON")

    p = sub.add_parser("evaluate", help="four-method protocol report")
    common(p)
    p.add_argument("scene")
    p.add_argument("--roi-size", type=int, default=128)
    p.add_argument("--methods", help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--snr-t", type=float, default=4.0)
    p.add_argument("--mean-frac", type=float, default=0.05)
    p.add_argument("--output", required=True)
    p.add_argument("--csv")
    p.add_argument("--dump-dir", help="write per-method PGM renderings here")
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: in-process callers run ``main`` many
    times, and parsing leaves the parser as it was.  It names the command
    to run; ``main`` looks the function up."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _load_config(args.config)
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be nonnegative, not {args.seed}")
        # looked up by name when it runs, not bound when the parser was
        # built, so that a command wrapped in this module's namespace (by a
        # tracer or a test) is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](
            args, config)
    except (ConfigError, DataError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
