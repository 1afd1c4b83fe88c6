"""Command-line contracts: exit codes, file outputs, byte-identical reruns."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svsensor import (BinMap, GainMap, RadianceMap, SensorConfig,
                      simulate_capture)
from svsensor.cli import main
from svsensor.fileio import (load_capture, read_pgm16, save_gain_stack,
                             save_json, write_pfm, write_pgm16)
from svsensor.readout import GainStack


@pytest.fixture
def scene_path(tmp_path):
    rng = np.random.default_rng(120)
    img = rng.uniform(0.5, 800.0, (64, 64)).astype(np.float32)
    path = tmp_path / "scene.pfm"
    write_pfm(path, img)
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sensor.json"
    path.write_text(SensorConfig().to_json())
    return str(path)


def test_unknown_flag_exits_2_without_output(tmp_path, scene_path):
    out = tmp_path / "cap"
    code = main(["simulate", scene_path, "--seed", "1",
                 "--output", str(out), "--frobnicate"])
    assert code == 2
    assert not out.with_suffix(".pgm").exists()


def test_missing_subcommand_exits_2():
    assert main([]) == 2


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    from svsensor import cli
    real, built = cli.build_parser, []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["theory", "--pitches", "0.5,1", "--lights", "1,2",
                         "--output", str(tmp_path / "t.csv")]) == 0
        assert main(["simulate"]) == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_command_wrapped_after_the_parser_was_built_runs(monkeypatch):
    # wrapping a command in the cli namespace (as a tracer does) takes
    # effect also once the parser exists
    from svsensor import cli
    assert main(["theory", "--pitches", "0.5,1", "--lights", "1,2"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_theory",
                        lambda args, config: seen.append(args) or 0)
    assert main(["theory", "--pitches", "0.5,1", "--lights", "1,2"]) == 0
    assert len(seen) == 1 and seen[0].command == "theory"


def test_reused_parser_keeps_exit_codes_and_outputs(capsys):
    # a failing parse, --help and a good command, run in that order in one
    # process, exit and print as each does with a parser of its own
    from svsensor import cli
    argvs = [["theory", "--pitches", "0.5,1", "--lights", "1,2", "--bogus"],
             ["theory", "--help"],
             ["theory", "--pitches", "0.5,1", "--lights", "1,2"]]

    def run(fresh):
        results = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            results.append((main(argv), *capsys.readouterr()))
        return results

    try:
        alone, shared = run(fresh=True), run(fresh=False)
    finally:
        cli._parser.cache_clear()
    assert [r[0] for r in shared] == [2, 0, 0]
    assert shared == alone
    assert "unrecognized arguments: --bogus" in shared[0][2]
    assert shared[1][1].startswith("usage: svsensor theory")
    assert shared[2][1].startswith("l0,p,f_cutoff\n")


def test_simulate_writes_capture_pair(tmp_path, scene_path, config_path):
    out = tmp_path / "cap"
    est = tmp_path / "est.pfm"
    code = main(["simulate", scene_path, "--config", config_path,
                 "--gain", "2.0", "--seed", "7", "--output", str(out),
                 "--estimate", str(est)])
    assert code == 0
    digits = read_pgm16(out.with_suffix(".pgm"))
    assert digits.shape == (64, 64)
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["seed"] == 7
    assert est.exists()


def test_reruns_are_byte_identical(tmp_path, scene_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", scene_path, "--config", config_path,
                     "--gain", "2.0", "--seed", "7",
                     "--output", str(out)]) == 0
    assert a.with_suffix(".pgm").read_bytes() == b.with_suffix(".pgm").read_bytes()
    assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
    assert a.with_suffix(".npz").read_bytes() == b.with_suffix(".npz").read_bytes()


def test_capture_grid_mismatch_exits_3(tmp_path, scene_path, config_path):
    gm_path = tmp_path / "gm.json"
    bm_path = tmp_path / "bm.json"
    save_json(gm_path, GainMap("per_roi", np.full((2, 2), 2.0),
                               roi_size=32).to_json_dict())
    from svsensor import BinMap
    save_json(bm_path, BinMap(roi_size=16,
                              factors=np.ones((4, 4), dtype=int),
                              mode="digital").to_json_dict())
    code = main(["capture", scene_path, "--config", config_path,
                 "--gain-map", str(gm_path), "--bin-map", str(bm_path),
                 "--seed", "3", "--output", str(tmp_path / "cap")])
    assert code == 3


def test_capture_per_pixel_mode(tmp_path, scene_path, config_path):
    out = tmp_path / "pp"
    code = main(["capture", scene_path, "--config", config_path,
                 "--per-pixel-eta", "4.0", "--seed", "5",
                 "--output", str(out)])
    assert code == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["meta"]["strategy"] == "per_pixel"


def test_plan_gain_from_pilot(tmp_path, scene_path, config_path):
    pilot = tmp_path / "pilot"
    assert main(["simulate", scene_path, "--config", config_path,
                 "--gain", "1.0", "--seed", "2", "--output", str(pilot)]) == 0
    plan = tmp_path / "plan.json"
    code = main(["plan-gain", "--config", config_path, "--pilot", str(pilot),
                 "--roi-size", "32", "--eta", "2.0", "--output", str(plan)])
    assert code == 0
    doc = json.loads(plan.read_text())
    assert doc["mode"] == "per_roi"
    assert doc["shape"] == [2, 2]
    assert all(1.0 <= g <= 27.0 for g in doc["values"])


def _assert_one_line_data_error(code, capsys):
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_simulate_malformed_pfm_exits_3(tmp_path, config_path, capsys):
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"Pf\nabc 4\n-1.0\n")
    code = main(["simulate", str(bad), "--config", config_path, "--seed", "1",
                 "--output", str(tmp_path / "o")])
    _assert_one_line_data_error(code, capsys)


def test_simulate_missing_scene_exits_3(tmp_path, config_path, capsys):
    code = main(["simulate", str(tmp_path / "missing.pfm"), "--config",
                 config_path, "--seed", "1", "--output", str(tmp_path / "o")])
    _assert_one_line_data_error(code, capsys)


def test_plan_gain_pilot_without_npz_exits_3(tmp_path, scene_path,
                                             config_path, capsys):
    pilot = tmp_path / "pilot"
    assert main(["simulate", scene_path, "--config", config_path,
                 "--gain", "1.0", "--seed", "2", "--output", str(pilot)]) == 0
    pilot.with_suffix(".npz").unlink()
    capsys.readouterr()
    code = main(["plan-gain", "--config", config_path, "--pilot", str(pilot),
                 "--roi-size", "32", "--output", str(tmp_path / "plan.json")])
    _assert_one_line_data_error(code, capsys)


def test_plan_gain_nan_vignetting_exits_3(tmp_path, config_path, capsys):
    # a NaN transmission is bad input data, not a non-finite gain setting
    vignette = np.full((64, 64), 0.8, dtype=np.float32)
    vignette[40, 21] = np.nan
    write_pfm(tmp_path / "vignette.pfm", vignette)
    code = main(["plan-gain", "--config", config_path, "--vignetting",
                 str(tmp_path / "vignette.pfm"), "--roi-size", "16",
                 "--output", str(tmp_path / "plan.json")])
    assert "transmission values must lie in (0, 1]" in capsys.readouterr().err
    assert code == 3


@pytest.mark.parametrize("ladder, step", [
    ("0.5", "0.5"), ("inf,1", "inf"), ("nan", "nan"), ("30", "30"),
    ("1,2,27.5", "27.5")])
def test_plan_gain_ladder_step_off_the_gain_range_exits_2(
        tmp_path, config_path, capsys, ladder, step):
    # a ladder step is a gain setting: one that is not finite or lies
    # outside [gain_min, gain_max] is a configuration error naming it, and
    # no plan is written
    write_pfm(tmp_path / "vignette.pfm", np.ones((16, 16), np.float32))
    plan = tmp_path / "plan.json"
    code = main(["plan-gain", "--config", config_path, "--vignetting",
                 str(tmp_path / "vignette.pfm"), "--roi-size", "8",
                 f"--ladder={ladder}", "--output", str(plan)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: gain ladder step ") and step in err
    assert len(err.strip().splitlines()) == 1
    assert not plan.exists()


@pytest.mark.parametrize("gain", ["0", "-1"])
def test_simulate_nonpositive_gain_names_the_gain(tmp_path, scene_path,
                                                  capsys, gain):
    # the plan's message names the rule that failed, not the valid ROI
    # size and mode
    code = main(["simulate", scene_path, f"--gain={gain}", "--seed", "1",
                 "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "gain" in err
    assert "roi_size" not in err and "mode" not in err
    assert len(err.strip().splitlines()) == 1


def test_every_public_name_resolves():
    import svsensor
    namespace = {}
    exec("from svsensor import *", namespace)
    assert len(set(svsensor.__all__)) == len(svsensor.__all__)
    assert set(svsensor.__all__) <= set(namespace)


def test_cli_import_leaves_out_scipy_optimize():
    # no command needs scipy.optimize or scipy.ndimage, and only evaluate
    # needs concurrent.futures; importing them costs every command start-up
    # time
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, svsensor.cli; "
            "sys.exit('scipy.optimize' in sys.modules "
            "or 'scipy.ndimage' in sys.modules "
            "or 'concurrent.futures' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_evaluate_and_calibrate_run_without_scipy(tmp_path, scene_path,
                                                  config_path):
    # the SSIM window and the read-noise fit are numpy code: neither pass
    # loads any scipy module
    from svsensor.fileio import write_pgm16
    dark = RadianceMap(data=np.zeros((16, 16)))
    entries = []
    for g in (1.0, 4.0, 16.0):
        frames = []
        for j in range(2):
            path = tmp_path / f"dark_{g:g}_{j}.pgm"
            write_pgm16(path, simulate_capture(dark, g, None, SensorConfig(),
                                               seed=j).digits)
            frames.append(str(path))
        entries.append({"gain": g, "frames": frames})
    save_json(tmp_path / "manifest.json", {"gains": entries})
    runs = [["evaluate", scene_path, "--config", config_path, "--roi-size",
             "16", "--seed", "3", "--output", str(tmp_path / "report.json")],
            ["calibrate", "--config", config_path, "--manifest",
             str(tmp_path / "manifest.json"), "--output",
             str(tmp_path / "profile.json")]]
    code = ("import json, sys; from svsensor.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')]))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0], []]


_WITHOUT_SCIPY = """
import importlib.abc, json, sys
from pathlib import Path


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())

import numpy as np
from svsensor import SceneSpec, SensorConfig, load_and_normalize
from svsensor.cli import main
from svsensor.fileio import write_pfm

d = Path(sys.argv[1])
for source in ("texture", "hdr_blobs"):
    scene = load_and_normalize(SceneSpec(source=source, seed=5, width=48,
                                         height=40, mean_level_frac=0.05),
                               SensorConfig()).data
    write_pfm(d / f"{source}.pfm", scene)
write_pfm(d / "dark.pfm", np.zeros((16, 16)))
scene = str(d / "hdr_blobs.pfm")
(d / "stack").mkdir()
runs = [["simulate", scene, "--gain", "1", "--seed", "1",
         "--output", f"{d}/stack/frame_000"],
        ["simulate", scene, "--gain", "4", "--seed", "1",
         "--output", f"{d}/stack/frame_001"],
        *[["simulate", f"{d}/dark.pfm", "--gain", g, "--seed", str(j),
           "--output", f"{d}/dark_{g}_{j}"] for g in ("1", "4", "16")
          for j in (0, 1)],
        ["plan-gain", "--pilot", f"{d}/stack/frame_000", "--roi-size", "16",
         "--output", f"{d}/gain.json"],
        ["plan-bin", "--pilot", f"{d}/stack/frame_000", "--roi-size", "16",
         "--mode", "digital", "--output", f"{d}/bin.json"],
        ["capture", scene, "--gain-map", f"{d}/gain.json", "--bin-map",
         f"{d}/bin.json", "--seed", "2", "--output", f"{d}/cap"],
        ["capture", scene, "--per-pixel-eta", "2", "--seed", "2",
         "--output", f"{d}/adaptive"],
        ["compose", "--stack", f"{d}/stack", "--gain-map", f"{d}/gain.json",
         "--snap", "--output", f"{d}/composed"],
        ["calibrate", "--manifest", f"{d}/manifest.json",
         "--output", f"{d}/profile.json"],
        ["theory", "--pitches", "0.5,1,2", "--lights", "1,10",
         "--output", f"{d}/theory.csv"],
        ["evaluate", scene, "--roi-size", "16", "--seed", "3",
         "--output", f"{d}/report.json"]]
(d / "stack" / "manifest.json").write_text(json.dumps({"frames": [
    {"gain": 1.0, "base": "frame_000"}, {"gain": 4.0, "base": "frame_001"}]}))
(d / "manifest.json").write_text(json.dumps({"gains": [
    {"gain": float(g), "frames": [f"{d}/dark_{g}_{j}.pgm" for j in (0, 1)]}
    for g in ("1", "4", "16")]}))
codes = {argv[0]: 0 for argv in runs}
for argv in runs:
    codes[argv[0]] |= main(argv)
print(json.dumps(codes))
"""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # scipy is a test-only dependency: with every scipy import refused, the
    # synthetic scenes build and every subcommand runs on one of them
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == dict.fromkeys(
        ["simulate", "plan-gain", "plan-bin", "capture", "compose",
         "calibrate", "theory", "evaluate"], 0)


@pytest.mark.parametrize("pitches, code", [("1e308", 0), ("0.5,1e308", 2)])
def test_theory_ends_on_huge_pitches(pitches, code):
    # a pitch of 1e308 overflows the contrast and noise terms, so that its
    # lanes resolve nothing (no cutoff, no p* and no N) and are not
    # bisected, and at a light of 1e-320 (a subnormal, printed as
    # 9.99988867e-321) its sine's argument overflows; next to a pitch of 0.5
    # its bin factor overflows
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from svsensor.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "theory", "--pitches", pitches,
         "--lights", "1e-320,1,10"], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == code
    assert out.stderr == ("" if code == 0 else
                          "error: pitch candidates must span a ratio whose "
                          "square is finite\n")
    assert out.stdout == (
        "l0,p,f_cutoff\n9.99988867e-321,1e+308,\n1,1e+308,\n10,1e+308,\n"
        "l0,p_star,N\n9.99988867e-321,,\n1,,\n10,,\n" if code == 0 else "")


def test_simulate_takes_no_gain_map(tmp_path, scene_path, capsys):
    # a gain plan is captured with `capture --gain-map`; simulate reads
    # one --gain
    save_json(tmp_path / "gains.json", _GAIN)
    assert main(["simulate", scene_path, "--gain-map",
                 str(tmp_path / "gains.json"), "--seed", "1",
                 "--output", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments: --gain-map" in capsys.readouterr().err
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("text", ["{bad", "3", "[]",
                                  '{"well_capacity": "abc"}'])
def test_malformed_config_exits_2(tmp_path, scene_path, text, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["simulate", scene_path, "--config", str(bad), "--seed", "1",
                 "--output", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("entry", [{"gain": 1.0}, {"frames": []}])
def test_calibrate_manifest_entry_without_key_exits_3(tmp_path, config_path,
                                                      entry, capsys):
    manifest = tmp_path / "manifest.json"
    save_json(manifest, {"gains": [entry]})
    code = main(["calibrate", "--config", config_path, "--manifest",
                 str(manifest), "--output", str(tmp_path / "profile.json")])
    _assert_one_line_data_error(code, capsys)


_GAIN = GainMap("per_roi", np.ones((2, 2)), roi_size=32).to_json_dict()
_BIN = BinMap(roi_size=32, factors=np.ones((2, 2), dtype=int),
              mode="digital").to_json_dict()


def _malformed(plan):
    """A plan without its values, with too few values, and with a value
    that is not a number."""
    return {"missing_key": {k: v for k, v in plan.items() if k != "values"},
            "short_values": dict(plan, values=plan["values"][:3]),
            "non_numeric": dict(plan, values=["x"] + plan["values"][1:])}


_RUN = ["--seed", "1", "--output", "{out}"]
_BAD_INPUTS = [
    *[(f"capture_gain_map_{name}", 3,
       ["capture", "{scene}", "--gain-map", "{bad}", *_RUN], doc)
      for name, doc in _malformed(_GAIN).items()],
    *[(f"capture_bin_map_{name}", 3,
       ["capture", "{scene}", "--gain-map", "{gain}", "--bin-map", "{bad}",
        *_RUN], doc)
      for name, doc in _malformed(_BIN).items()],
    *[(f"compose_gain_map_{name}", 3,
       ["compose", "--stack", "{stack}", "--gain-map", "{bad}",
        "--output", "{out}"], doc)
      for name, doc in _malformed(_GAIN).items()],
    ("capture_gain_map_string_roi_size", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
     {"mode": "per_roi", "roi_size": "32", "shape": [1, 1], "values": [2.0]}),
    ("capture_gain_map_string_eta", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
     dict(_GAIN, eta="x")),
    ("capture_bin_map_string_roi_size", 3,
     ["capture", "{scene}", "--gain-map", "{gain}", "--bin-map", "{bad}",
      *_RUN], dict(_BIN, roi_size="32")),
    ("capture_bin_map_fractional_factor", 3,
     ["capture", "{scene}", "--gain-map", "{gain}", "--bin-map", "{bad}",
      *_RUN], dict(_BIN, values=[2.5, 1.9, 1, 1])),
    ("capture_gain_map_not_utf8", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN], b"\xff\xfe"),
    ("config_not_utf8", 2,
     ["simulate", "{scene}", "--config", "{bad}", *_RUN], b"\xff\xfe"),
    ("pitches_not_numbers", 2,
     ["theory", "--pitches", "0.5,x", "--lights", "1,2"], None),
    ("lights_not_numbers", 2,
     ["theory", "--pitches", "0.5,1", "--lights", "1,abc"], None),
    ("ladder_not_numbers", 2,
     ["plan-gain", "--vignetting", "{vignette}", "--roi-size", "8",
      "--ladder", "1,two", "--output", "{out}"], None),
    ("negative_per_pixel_eta", 2,
     ["capture", "{scene}", "--per-pixel-eta", "-1", *_RUN], None),
    ("capture_bin_map_unknown_mode", 3,
     ["capture", "{scene}", "--gain-map", "{gain}", "--bin-map", "{bad}",
      *_RUN], dict(_BIN, mode="bogus")),
    ("capture_bin_map_zero_roi_size", 3,
     ["capture", "{scene}", "--gain-map", "{gain}", "--bin-map", "{bad}",
      *_RUN], dict(_BIN, roi_size=0)),
    ("capture_bin_map_linear_factor_3", 3,
     ["capture", "{scene}", "--gain-map", "{gain}", "--bin-map", "{bad}",
      *_RUN], dict(_BIN, values=[3, 1, 1, 1])),
    ("capture_gain_map_unknown_mode", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
     dict(_GAIN, mode="roi")),
    ("capture_gain_map_negative_eta", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN], dict(_GAIN, eta=-1)),
    ("capture_gain_map_zero_roi_size", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
     dict(_GAIN, roi_size=0)),
    # a negative linear bin factor is off the ladder, though its square
    # is on it
    ("capture_bin_map_negative_linear_factor", 3,
     ["capture", "{scene}", "--gain-map", "{gain}", "--bin-map", "{bad}",
      *_RUN], dict(_BIN, values=[-2, 1, 1, 1])),
    # a constant or per-pixel gain plan that names an roi_size names a
    # positive one
    ("capture_gain_map_constant_negative_roi_size", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
     {"mode": "constant", "roi_size": -5, "eta": 0.0, "shape": [],
      "values": [2.0]}),
    ("capture_gain_map_per_pixel_zero_roi_size", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
     {"mode": "per_pixel", "roi_size": 0, "eta": 0.0, "shape": [64, 64],
      "values": [2.0] * 64 * 64}),
    *[(f"{name}_into_missing_dir", 3, argv, None) for name, argv in [
        ("simulate", ["simulate", "{scene}", "--seed", "1",
                      "--output", "{nodir}/x"]),
        ("simulate_estimate", ["simulate", "{scene}", *_RUN,
                               "--estimate", "{nodir}/e.pfm"]),
        ("theory", ["theory", "--pitches", "0.5,1", "--lights", "1,2",
                    "--output", "{nodir}/t.csv"]),
        ("theory_lut", ["theory", "--pitches", "0.5,1,2,4", "--lights",
                        "1,2", "--lut-out", "{nodir}/lut.json"]),
        ("plan_gain", ["plan-gain", "--pilot", "{stack}/frame_000",
                       "--roi-size", "32", "--output", "{nodir}/p.json"]),
        ("compose", ["compose", "--stack", "{stack}", "--gain-map", "{gain}",
                     "--output", "{nodir}/c"]),
        ("evaluate_csv", ["evaluate", "{scene}", "--roi-size", "32", *_RUN,
                          "--csv", "{nodir}/r.csv"]),
    ]],
    ("evaluate_dump_dir_under_a_file", 3,
     ["evaluate", "{scene}", "--roi-size", "32", *_RUN,
      "--dump-dir", "{scene}/dump"], None),
    # a non-finite number where the command line reads one (V) is a
    # configuration error
    *[(f"{name}_{value}", 2, [a.replace("V", value) for a in argv], None)
      for value in ("nan", "inf") for name, argv in [
        ("per_pixel_eta", ["capture", "{scene}", "--per-pixel-eta", "V",
                           *_RUN]),
        ("simulate_gain", ["simulate", "{scene}", "--gain", "V", *_RUN]),
        ("plan_gain_eta", ["plan-gain", "--pilot", "{stack}/frame_000",
                           "--roi-size", "32", "--eta", "V",
                           "--output", "{out}"]),
        ("plan_gain_vignetting_eta", ["plan-gain", "--vignetting",
                                      "{vignette}", "--roi-size", "8",
                                      "--eta", "V", "--output", "{out}"]),
        ("plan_bin_snr_t", ["plan-bin", "--pilot", "{stack}/frame_000",
                            "--roi-size", "32", "--snr-t", "V",
                            "--output", "{out}"]),
        ("evaluate_eta", ["evaluate", "{scene}", "--roi-size", "32",
                          "--eta", "V", *_RUN]),
        ("evaluate_snr_t", ["evaluate", "{scene}", "--roi-size", "32",
                            "--snr-t", "V", *_RUN]),
        ("theory_snr_t", ["theory", "--pitches", "0.5,1", "--lights", "1,2",
                          "--snr-t", "V"]),
        ("theory_pitches", ["theory", "--pitches", "0.5,V",
                            "--lights", "1,2"]),
        ("theory_lights", ["theory", "--pitches", "0.5,1",
                           "--lights", "1,V"]),
        ("theory_gain", ["theory", "--pitches", "0.5,1", "--lights", "1,2",
                         "--gain", "V"]),
        ("plan_bin_gain", ["plan-bin", "--pilot", "{stack}/frame_000",
                           "--roi-size", "32", "--gain", "V",
                           "--output", "{out}"]),
    ]],
    # a gain whose square overflows or underflows, and pitches whose bin
    # factor (largest over smallest, squared) overflows, are configuration
    # errors
    *[(f"{name}_{value}", 2, [a.replace("V", value) for a in argv], None)
      for value in ("1e200", "1e-200") for name, argv in [
        ("theory_gain", ["theory", "--pitches", "0.5,1", "--lights", "1,2",
                         "--gain", "V"]),
        ("plan_bin_gain", ["plan-bin", "--pilot", "{stack}/frame_000",
                           "--roi-size", "32", "--gain", "V",
                           "--output", "{out}"]),
    ]],
    ("theory_pitch_span", 2,
     ["theory", "--pitches", "1e-300,1e150", "--lights", "1e-290"], None),
    *[(f"capture_gain_map_{value.lower()}_eta", 3,
       ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
       json.dumps(dict(_GAIN, eta="X")).replace('"X"', value).encode())
      for value in ("NaN", "Infinity")],
    ("capture_gain_map_null_value", 3,
     ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
     dict(_GAIN, values=[None, 1.0, 1.0, 1.0])),
    ("capture_per_pixel_eta_with_plans", 2,
     ["capture", "{scene}", "--per-pixel-eta", "4", "--gain-map", "{gain}",
      "--bin-map", "{bad}", *_RUN], _BIN),
    ("capture_per_pixel_eta_with_gain_map", 2,
     ["capture", "{scene}", "--per-pixel-eta", "4", "--gain-map", "{gain}",
      *_RUN], None),
    # a negative seed, a sensor config field that is not a finite number, a
    # bit depth that is not an integer and a ladder that snaps gains onto a
    # step <= 0 or NaN are configuration errors; a plan file with a gain
    # <= 0 is a data error
    *[(f"{name}_negative_seed", 2, [*argv, "--seed", "-1",
                                    "--output", "{out}"], None)
      for name, argv in [
        ("simulate", ["simulate", "{scene}"]),
        ("capture", ["capture", "{scene}", "--gain-map", "{gain}"]),
        ("evaluate", ["evaluate", "{scene}", "--roi-size", "32"])]],
    *[(f"config_{name}", 2, ["simulate", "{scene}", "--config", "{bad}",
                             *_RUN], doc)
      for name, doc in [("fractional_bit_depth", {"bit_depth": 12.5}),
                        ("bool_bit_depth", {"bit_depth": True}),
                        ("nan_well_capacity", b'{"well_capacity": NaN}'),
                        ("infinite_sigma_post", b'{"sigma_post": Infinity}'),
                        ("huge_gain_max",
                         b'{"gain_max": 1' + b"0" * 400 + b"}")]],
    *[(f"plan_gain_ladder_{name}", 2,
       ["plan-gain", "--vignetting", "{vignette}", "--roi-size", "8",
        f"--ladder={ladder}", "--output", "{out}"], None)
      for name, ladder in [("negative", "-1,1000"), ("zero_nan", "0,nan")]],
    *[(f"capture_gain_map_{name}_gain", 3,
       ["capture", "{scene}", "--gain-map", "{bad}", *_RUN],
       dict(_GAIN, values=[value, 1.0, 1.0, 1.0]))
      for name, value in [("zero", 0.0), ("negative", -1.0)]],
    # an empty scene is a data error, not a bad ROI size
    *[(f"{name}_empty_scene", 3, [name, "{empty}", *_RUN], None)
      for name in ("simulate", "evaluate")],
    # a calibration burst of frames of two shapes, and a gain that is not
    # finite and positive, are data errors
    *[(f"calibrate_{name}", 3,
       ["calibrate", "--manifest", "{bad}", "--output", "{out}"],
       {"gains": [{"gain": g, "frames": ["{dark4}", second]}
                  for g, second in zip(gains, ("{dark4}", last, "{dark4}"))]})
      for name, gains, last in [
        ("frames_of_two_shapes", (1.0, 3.0, 9.0), "{dark5}"),
        ("nan_gain", (1.0, math.nan, 9.0), "{dark4}"),
        ("negative_gain", (1.0, -4.0, 9.0), "{dark4}")]],
    # JSON nested past the parser's recursion limit, as a config, a plan
    # and a calibration manifest
    *[(f"{name}_deeply_nested", code, argv, b"[" * 100000)
      for name, code, argv in [
        ("config", 2, ["simulate", "{scene}", "--config", "{bad}", *_RUN]),
        ("capture_gain_map", 3,
         ["capture", "{scene}", "--gain-map", "{bad}", *_RUN]),
        ("calibrate_manifest", 3,
         ["calibrate", "--manifest", "{bad}", "--output", "{out}"])]],
    # a pilot PGM whose header claims 100000 x 100000 pixels over 10 bytes
    *[(f"{name}_oversized_pilot", 3,
       [name, "--pilot", "{huge}", "--roi-size", "8", "--output", "{out}"],
       None) for name in ("plan-gain", "plan-bin")],
    # a PFM scene whose means Poisson cannot draw from (3e38 photons)
    *[(f"{name}_scene_beyond_poisson", 3, [*argv, *_RUN],
       b"Pf\n2 2\n-1.0\n" + np.full(4, 3e38, "<f4").tobytes())
      for name, argv in [
        ("simulate", ["simulate", "{bad}"]),
        ("capture_per_pixel", ["capture", "{bad}", "--per-pixel-eta", "2"])]],
]


@pytest.mark.parametrize("code, argv, bad", [case[1:] for case in _BAD_INPUTS],
                         ids=[case[0] for case in _BAD_INPUTS])
def test_bad_input_exits_with_one_error_line(tmp_path, scene_path, code,
                                             argv, bad, capsys):
    files = {"scene": scene_path, "out": str(tmp_path / "out"),
             "bad": str(tmp_path / "bad.json"),
             "gain": str(tmp_path / "gain.json"),
             "stack": str(tmp_path / "stack"),
             "vignette": str(tmp_path / "vignette.pfm"),
             "nodir": str(tmp_path / "nodir"),
             "empty": str(tmp_path / "empty.pfm"),
             "dark4": str(tmp_path / "dark4.pgm"),
             "dark5": str(tmp_path / "dark5.pgm"),
             "huge": str(tmp_path / "huge")}
    if isinstance(bad, bytes):
        Path(files["bad"]).write_bytes(bad)
    elif bad is not None:
        # a document may name the files above, as "{name}"
        text = json.dumps(bad)
        for name, path in files.items():
            text = text.replace("{%s}" % name, path)
        Path(files["bad"]).write_text(text)
    write_pfm(files["empty"], np.zeros((0, 0)))
    write_pgm16(files["dark4"], np.zeros((4, 4), np.uint16))
    write_pgm16(files["dark5"], np.zeros((4, 5), np.uint16))
    Path(files["huge"] + ".pgm").write_bytes(b"P5\n100000 100000\n65535\n"
                                             + bytes(10))
    save_json(files["gain"], _GAIN)
    write_pfm(files["vignette"], np.ones((16, 16), dtype=np.float32))
    scene = RadianceMap(data=np.full((64, 64), 80.0))
    save_gain_stack(files["stack"], GainStack(gains=(1.0,), frames=(
        simulate_capture(scene, 1.0, None, SensorConfig(), seed=1),)))
    assert main([a.format(**files) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_plan_gain_pilot_and_vignetting_exits_2(tmp_path, config_path,
                                                capsys):
    # two sources for one plan are a configuration error naming both
    # flags, raised before either file is read: the pilot does not exist
    write_pfm(tmp_path / "vignette.pfm", np.ones((16, 16), np.float32))
    plan = tmp_path / "plan.json"
    code = main(["plan-gain", "--config", config_path,
                 "--pilot", str(tmp_path / "missing"),
                 "--vignetting", str(tmp_path / "vignette.pfm"),
                 "--roi-size", "8", "--output", str(plan)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "--pilot" in err and "--vignetting" in err
    assert not plan.exists()


def test_plan_gain_without_inputs_exits_2(tmp_path, config_path):
    code = main(["plan-gain", "--config", config_path,
                 "--output", str(tmp_path / "x.json")])
    assert code == 2


def test_plan_bin_writes_factors(tmp_path, scene_path, config_path):
    pilot = tmp_path / "pilot"
    assert main(["simulate", scene_path, "--config", config_path,
                 "--gain", "1.0", "--seed", "2", "--output", str(pilot)]) == 0
    plan = tmp_path / "bins.json"
    code = main(["plan-bin", "--config", config_path, "--pilot", str(pilot),
                 "--roi-size", "32", "--output", str(plan)])
    assert code == 0
    doc = json.loads(plan.read_text())
    assert doc["mode"] == "additive"
    assert all(k in (1, 2, 4, 8) for k in doc["values"])


@pytest.fixture(scope="module")
def ragged_pilot(tmp_path_factory):
    """A unit-gain capture of a 300x257 hdr_blobs scene: ROIs of 16 and 32
    leave a clipped bottom row and right column."""
    from svsensor import SceneSpec, load_and_normalize
    root = tmp_path_factory.mktemp("pilot")
    spec = SceneSpec(source="hdr_blobs", seed=7, width=257, height=300,
                     mean_level_frac=0.05)
    write_pfm(root / "scene.pfm", load_and_normalize(spec, SensorConfig()).data)
    assert main(["simulate", str(root / "scene.pfm"), "--gain", "1",
                 "--seed", "19", "--output", str(root / "pilot")]) == 0
    return root / "pilot"


# the plan-bin pins: ROI size, gain, SHA-256 of bins.json
_PLAN_BIN_PINS = [
    (16, "1", "1ef2675a17d1c5d09b9d06109687575f"
     "e13da8663d86ea5a1be24b88cd0b45bd"),
    (16, "27", "e2a97c8d7c6e565ca69b7bb105f027fc"
     "b2a2458a8786b4622e5fde28344924da"),
    (32, "1", "ffca7f6d4a9620cfd06507132af5e813"
     "fb97fb121197715576566322aa41b29a"),
    (32, "27", "13ca3dd40bff9aa34baa0c4161bb81c5"
     "79ee7bae72efc5b3359f771a2757c7ca"),
    (12, "27", "7971e9684b0d4942994eb0d9b78378b7"
     "416ebfaf5eec9f1199773004dbbb29aa"),
    (20, "27", "56d8efd44bf0400e6b9656723e98d540"
     "2271a9891e530286da03e6d3231c5fb5"),
    (36, "27", "07f03a46b273a94f327fb4516be71fe4"
     "4a5dae4f885cd5fdc40c65a140ad89bb"),
    (24, "1", "7cf7277b7b52c366dc946fee0fb3de66"
     "3cb2bf7bb47f44f04e4ec478edfc0d12"),
    (24, "27", "5d645b264ea1b2f292fc34c132161e07"
     "233f650ede4c2332fac216b3b041037e"),
    (40, "1", "39f21d54931b2bd6afccd8554a6176b8"
     "03cb56605a00aba3e0dcaad299a35d2d"),
    (40, "27", "22bae7fa7e9fb7aca31f0ce65923625f"
     "72f773e4ca7786ca91e9d43a5d2bca4f"),
]


@pytest.mark.parametrize("roi, gain, digest", _PLAN_BIN_PINS,
                         ids=[f"{roi}-{gain}"
                              for roi, gain, _ in _PLAN_BIN_PINS])
def test_plan_bin_pinned(tmp_path, ragged_pilot, roi, gain, digest):
    # SHA-256 of bins.json, fixed so that a rewrite of the pitch planner
    # cannot move a single factor
    out = tmp_path / "bins.json"
    assert main(["plan-bin", "--pilot", str(ragged_pilot), "--roi-size",
                 str(roi), "--gain", gain, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("roi", [12, 20, 36])
def test_plan_bin_factors_divide_roi_size(tmp_path, ragged_pilot, roi):
    # 8 does not divide these ROI sizes: dark ROIs get the largest factor
    # whose k does, so the plan is valid whatever the scene's brightness
    out = tmp_path / "bins.json"
    assert main(["plan-bin", "--pilot", str(ragged_pilot), "--roi-size",
                 str(roi), "--gain", "1", "--output", str(out)]) == 0
    assert all(roi % k == 0 for k in json.loads(out.read_text())["values"])


def test_evaluate_error_in_an_ssim_chunk_exits_4(tmp_path, scene_path,
                                                 monkeypatch, capsys):
    from svsensor import metrics
    from svsensor.errors import NumericalError

    def failing(*args):
        raise NumericalError("injected SSIM failure")

    monkeypatch.setattr(metrics, "ssim", failing)
    code = main(["evaluate", scene_path, "--roi-size", "16", "--seed", "1",
                 "--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 4
    assert "injected SSIM failure" in err and "Traceback" not in err


@pytest.mark.parametrize("mean_frac", ["0.0005", "0.05"])
def test_evaluate_roi_size_8_does_not_divide(tmp_path, scene_path,
                                             mean_frac):
    assert main(["evaluate", scene_path, "--roi-size", "12", "--mean-frac",
                 mean_frac, "--seed", "1", "--output",
                 str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("height, width, digest", [
    (256, 256, "94633c9d74fe1323b4d6a6822356164e"
     "d6ec244696bfedd42bc306b40f6632c5"),
    (300, 257, "74f9912cc069a8aab365db8b9f31cb6c"
     "bd9818574e10dc0c0daf680463289d69"),
])
def test_plan_gain_vignetting_pinned(tmp_path, height, width, digest):
    # SHA-256 of the plan that plan-gain --vignetting writes for a radial
    # cos^4-like falloff at ROI 16, fixed so that a change to the per-ROI
    # mean cannot move a gain
    y, x = np.mgrid[:height, :width]
    r2 = (((y - (height - 1) / 2) ** 2 + (x - (width - 1) / 2) ** 2)
          / (0.5 * max(height, width)) ** 2)
    write_pfm(tmp_path / "v.pfm", ((1.0 + r2) ** -2).astype(np.float32))
    out = tmp_path / "plan.json"
    assert main(["plan-gain", "--vignetting", str(tmp_path / "v.pfm"),
                 "--roi-size", "16", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_theory_csv_monotone_curve(tmp_path, config_path, capsys):
    code = main(["theory", "--config", config_path, "--snr-t", "4",
                 "--pitches", "0.5,1,2,4",
                 "--lights", ",".join(str(v) for v in
                                      np.geomspace(0.3, 3000, 12))])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "l0,p,f_cutoff"
    # second table: p_star non-increasing with light level
    start = lines.index("l0,p_star,N")
    stars = [float(r.split(",")[1]) for r in lines[start + 1:]
             if r.split(",")[1]]
    assert all(a >= b for a, b in zip(stars, stars[1:]))


def test_theory_rejects_bad_grid(config_path):
    code = main(["theory", "--config", config_path,
                 "--pitches", "2,1", "--lights", "1,2"])
    assert code == 2


def test_calibrate_end_to_end(tmp_path, config_path):
    config = SensorConfig()
    dark = RadianceMap(data=np.zeros((48, 48)))
    entries = []
    for i, g in enumerate(np.geomspace(1.0, 27.0, 6)):
        frames = []
        for j in range(30):
            raw = simulate_capture(dark, float(g), None, config,
                                   seed=131 + 100 * i + j)
            p = tmp_path / f"d{i}_{j}.pgm"
            write_pgm16(p, raw.digits)
            frames.append(str(p))
        entries.append({"gain": float(g), "frames": frames})
    manifest = tmp_path / "manifest.json"
    save_json(manifest, {"gains": entries})
    out = tmp_path / "profile.json"
    code = main(["calibrate", "--config", config_path, "--manifest",
                 str(manifest), "--electrons", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["units"] == "electrons"
    assert abs(doc["sigma_post"] - 3.31) / 3.31 < 0.15


def test_calibrate_profile_pinned(tmp_path, config_path):
    # SHA-256 of the profile.json that calibrate --electrons writes, fixed
    # so that a change to how the profile document is built cannot change
    # a byte of it
    dark = RadianceMap(data=np.zeros((16, 16)))
    entries = []
    for i, g in enumerate((1.0, 3.0, 9.0, 27.0)):
        frames = []
        for j in range(3):
            path = tmp_path / f"d{i}_{j}.pgm"
            write_pgm16(path, simulate_capture(dark, g, None, SensorConfig(),
                                               seed=300 + 10 * i + j).digits)
            frames.append(str(path))
        entries.append({"gain": g, "frames": frames})
    save_json(tmp_path / "manifest.json", {"gains": entries})
    out = tmp_path / "profile.json"
    assert main(["calibrate", "--config", config_path, "--manifest",
                 str(tmp_path / "manifest.json"), "--electrons",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "269effc20459fe11c31957a030b500d385257dad26e956a02b16a9add5c74c26")


def test_compose_from_stack_directory(tmp_path, config_path):
    config = SensorConfig()
    scene = RadianceMap(data=np.full((64, 64), 80.0))
    frames = tuple(simulate_capture(scene, g, None, config, seed=140 + i)
                   for i, g in enumerate([1.0, 4.0]))
    stack_dir = tmp_path / "stack"
    save_gain_stack(stack_dir, GainStack(gains=(1.0, 4.0), frames=frames))
    gm_path = tmp_path / "plan.json"
    save_json(gm_path, GainMap("per_roi", np.array([[1.0, 4.0], [4.0, 1.0]]),
                               roi_size=32).to_json_dict())
    out = tmp_path / "composed"
    code = main(["compose", "--config", config_path, "--stack",
                 str(stack_dir), "--gain-map", str(gm_path),
                 "--output", str(out)])
    assert code == 0
    composed = load_capture(out, config)
    assert np.array_equal(composed.digits[:32, :32],
                          frames[0].digits[:32, :32])
    assert np.array_equal(composed.digits[:32, 32:],
                          frames[1].digits[:32, 32:])


def test_evaluate_writes_report(tmp_path, scene_path, config_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    dump = tmp_path / "dumps"
    code = main(["evaluate", scene_path, "--config", config_path,
                 "--roi-size", "32", "--seed", "17", "--mean-frac", "0.05",
                 "--output", str(out), "--csv", str(csv),
                 "--dump-dir", str(dump)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["methods"]) == {
        "const_gain_no_bin", "vary_gain_no_bin",
        "const_gain_vary_bin", "vary_gain_vary_bin"}
    assert csv.read_text().startswith("method,")
    rendered = sorted(p.name for p in dump.glob("*.pgm"))
    assert "ground_truth.pgm" in rendered
    assert "vary_gain_vary_bin.pgm" in rendered
    assert read_pgm16(dump / "ground_truth.pgm").shape == (64, 64)


def _pinned_inputs(root):
    """A clipped 100x70 scene (ROIs of 32 leave a 4-row bottom row and a
    6-column right column), one per-ROI gain plan, a bin plan with factors
    1, 4 and 16 that every mode can read at those gains, and a gain stack
    at gains 1, 2, 4 and 8 drawn at one seed."""
    rng = np.random.default_rng(2027)
    write_pfm(root / "scene.pfm", rng.uniform(0, 900, (100, 70)))
    gains = [[1.5, 6, 20], [5, 2, 17], [16, 4.5, 1], [1, 18, 4]]
    save_json(root / "gains.json", GainMap("per_roi", np.array(gains),
                                           roi_size=32).to_json_dict())
    ks = np.array([[1, 2, 4], [2, 1, 4], [4, 2, 1], [1, 4, 2]])
    for mode in ("additive", "average", "digital"):
        save_json(root / f"bins_{mode}.json",
                  BinMap(32, ks * ks, mode).to_json_dict())
    plan = [[1.5, 3, 8], [5, 1, 2.5], [7.9, 4.5, 1], [1, 9, 2]]
    save_json(root / "plan.json", GainMap("per_roi", np.array(plan),
                                          roi_size=32).to_json_dict())
    (root / "stack").mkdir()
    frames = []
    for g in (1, 2, 4, 8):
        assert main(["simulate", str(root / "scene.pfm"), "--gain", str(g),
                     "--seed", "5",
                     "--output", str(root / "stack" / f"gain_{g}")]) == 0
        frames.append({"gain": float(g), "base": f"gain_{g}"})
    save_json(root / "stack" / "manifest.json", {"frames": frames})


_SCENE = ["{root}/scene.pfm", "--seed", "9", "--output", "{root}/out",
          "--estimate", "{root}/out.pfm"]
# additive and average binning read the same digits here: they differ only
# where a superpixel's charge exceeds N wells, which saturates either way
_BINNED = ("5b22d4fffe4eda62003345a776f1226e83e551e48a2a0ac0e5eb7adc2380f245",
           "83b17cf4d5f9c153dc420321fdf2cbb794379db2f97f9459fd8920bb80cfe308")
_PINNED = [
    ("simulate_gain", ["simulate", *_SCENE, "--gain", "2"],
     "a703b58396fd1ac17a401dbca050bec6148ca16dcf57b1195f520bda2205ffb4",
     "c689650fc82184bc3e3df48a085242454e6a1001d0cb9fc6afd9ca3563ddfcdf"),
    ("capture_gain_map",
     ["capture", *_SCENE, "--gain-map", "{root}/gains.json"],
     "36733ca8a5ca26bdd8a2aaae0bc28525e48c5e5b6b82225b328da95aa4b95436",
     "4ea9b3cc2f011a3d17aa681982b56a7cf89698bf88e7fdaaa1513744ff76c21d"),
    *[(f"capture_{mode}",
       ["capture", *_SCENE, "--gain-map", "{root}/gains.json",
        "--bin-map", f"{{root}}/bins_{mode}.json"], *digests)
      for mode, digests in (("additive", _BINNED), ("average", _BINNED))],
    ("capture_digital",
     ["capture", *_SCENE, "--gain-map", "{root}/gains.json",
      "--bin-map", "{root}/bins_digital.json"],
     "fa1f24a4ab0416750783730fd22e8b8fa7e53af079444bcbf908449d84e37534",
     "e81bdf6417f28306fbdbe938a061f9682676a74329193c03c7417521b63d6554"),
    ("capture_per_pixel", ["capture", *_SCENE, "--per-pixel-eta", "4"],
     "904d143b1fed78e8ee35a7fc0f1962718881205185c37a399e4bacdd83cac730",
     "679a0e6e1bcdbb820b50747274c2018d55aad8cde1920b04e61e24c9777d2940"),
    ("compose_snap",
     ["compose", "--stack", "{root}/stack", "--gain-map", "{root}/plan.json",
      "--snap", "--output", "{root}/out"],
     "c2c293ddaf9c578af73d19134740db7cdfd93ab465369f8823bbf255ef51b958",
     None),
]


@pytest.mark.parametrize("argv, pgm, pfm", [case[1:] for case in _PINNED],
                         ids=[case[0] for case in _PINNED])
def test_cli_outputs_pinned(tmp_path, argv, pgm, pfm):
    # SHA-256 of the capture PGM and the --estimate PFM, fixed so that a
    # change to how captures are planned, stored or decoded cannot change
    # a byte of the digits or the estimate
    _pinned_inputs(tmp_path)
    assert main([a.format(root=tmp_path) for a in argv]) == 0
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("out.pgm", "out.pfm")
              if (tmp_path / name).exists()}
    assert digest.get("out.pgm") == pgm
    assert digest.get("out.pfm") == pfm
