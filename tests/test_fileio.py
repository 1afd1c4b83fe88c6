"""Capture files: the PGM + sidecar (JSON + .npz) round trip and the
errors raised for malformed or missing files."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsensor import (BinMap, DataError, GainMap, GainStack, RadianceMap,
                      RoiGrid, SceneSpec, SensorConfig, bin_capture,
                      capture_adaptive, capture_spatially_varying,
                      compose_from_gain_stack, load_and_normalize,
                      simulate_capture)
from svsensor.fileio import (load_capture, load_gain_stack, read_pfm,
                             read_pgm16, save_capture, save_gain_stack,
                             save_json, write_pfm, write_pgm16)
from svsensor.sensor import BIN_MODES


def _hdr_scene(config, size, seed=1):
    spec = SceneSpec(source="hdr_blobs", seed=seed, width=size, height=size,
                     mean_level_frac=0.05)
    return load_and_normalize(spec, config)


def _assert_same_capture(a, b):
    assert np.array_equal(a.digits, b.digits)
    assert np.array_equal(a.saturation_mask, b.saturation_mask)
    assert (a.plan.roi_size, a.plan.mode) == (b.plan.roi_size, b.plan.mode)
    for x, y in ((a.plan.gains, b.plan.gains), (a.plan.bins, b.plan.bins),
                 (a.gain, b.gain)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    x, y = (c.plan.grid(*c.digits.shape).expand(c.plan.bins)
            for c in (a, b))
    assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a.seed == b.seed
    assert a.meta == b.meta


def _capture(kind, height, width, seed):
    """A capture of a random scene under one plan kind; per-ROI plans use
    16-pixel ROIs, clipped on the bottom and right unless 16 divides the
    frame."""
    config = SensorConfig()
    rng = np.random.default_rng(seed)
    scene = RadianceMap(data=rng.uniform(0, 900, (height, width)))
    shape = RoiGrid(height, width, 16).shape
    if kind == "constant":
        return simulate_capture(scene, 2.0, None, config, seed)
    if kind == "per_roi":
        gm = GainMap("per_roi", rng.uniform(1, 8, shape), roi_size=16)
        return simulate_capture(scene, gm, None, config, seed)
    if kind == "per_pixel":
        gm = GainMap("per_pixel", rng.uniform(1, 8, (height, width)))
        return simulate_capture(scene, gm, None, config, seed)
    if kind == "adaptive":
        return capture_adaptive(scene, 2.0, config, seed)[0]
    if kind in BIN_MODES:
        n = rng.choice([1, 4, 16], shape)
        gm = GainMap("per_roi", n * rng.uniform(1, 1.5, shape), roi_size=16)
        return simulate_capture(scene, gm, BinMap(16, n, kind), config, seed)
    if kind == "bin_capture":
        even = RadianceMap(data=scene.data[:height // 2 * 2, :width // 2 * 2])
        return bin_capture(even, 8.0, 4, "average", config, seed)
    ladder = (1.0, 2.0, 4.0)
    stack = GainStack(gains=ladder, frames=tuple(
        simulate_capture(scene, g, None, config, seed) for g in ladder))
    plan = GainMap("per_roi", rng.choice(ladder, shape), roi_size=16)
    return compose_from_gain_stack(stack, plan)[0]


@given(kind=st.sampled_from(["constant", "per_roi", "per_pixel", "adaptive",
                             *BIN_MODES, "bin_capture", "composite"]),
       height=st.integers(2, 40), width=st.integers(2, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_plan_kind_round_trips(kind, height, width, seed):
    raw = _capture(kind, height, width, seed)
    with tempfile.TemporaryDirectory() as tmp:
        save_capture(Path(tmp) / "cap", raw)
        _assert_same_capture(load_capture(Path(tmp) / "cap", SensorConfig()),
                             raw)


def test_saturation_mask_survives_round_trip(tmp_path, config):
    # Under digital binning a superpixel is flagged when any of its unit
    # pixels clipped, so the mask is not digits == digital_max.
    scene = _hdr_scene(config, 512)
    bm = BinMap(roi_size=128, factors=np.full((4, 4), 16), mode="digital")
    raw, _ = capture_spatially_varying(scene, 4.0, bm, config, seed=1)
    assert raw.saturation_mask.sum() > (raw.digits == config.digital_max).sum()
    save_capture(tmp_path / "cap", raw)
    back = load_capture(tmp_path / "cap", config)
    assert np.array_equal(back.saturation_mask, raw.saturation_mask)


def test_uniform_arrays_stored_as_scalars(tmp_path, config):
    # a constant plan is one ROI over the frame: one gain, one bin factor
    raw = simulate_capture(_hdr_scene(config, 64), 2.0, None, config, seed=4)
    save_capture(tmp_path / "cap", raw)
    doc = json.loads((tmp_path / "cap.json").read_text())
    assert doc == {"format": 3, "seed": 4, "meta": {}, "roi_size": 64,
                   "mode": "digital"}
    with np.load(tmp_path / "cap.npz") as npz:
        assert sorted(npz.files) == ["bin_grid", "gain_grid",
                                     "saturation_mask"]
        assert npz["gain_grid"].tolist() == [[2.0]]
        assert npz["bin_grid"].tolist() == [[1]]
        assert npz["saturation_mask"].shape == (64 * 64 // 8,)
    _assert_same_capture(load_capture(tmp_path / "cap", config), raw)


def test_per_roi_capture_round_trip(tmp_path, config):
    scene = _hdr_scene(config, 64)
    gm = GainMap("per_roi", np.array([[1.0, 4.0], [8.0, 2.0]]), roi_size=32)
    bm = BinMap(roi_size=32, factors=np.array([[1, 4], [16, 1]]),
                mode="average")
    raw, _ = capture_spatially_varying(scene, gm, bm, config, seed=6)
    save_capture(tmp_path / "cap", raw)
    doc = json.loads((tmp_path / "cap.json").read_text())
    assert (doc["roi_size"], doc["mode"], doc["meta"]) == (32, "average", {})
    with np.load(tmp_path / "cap.npz") as npz:
        assert npz["gain_grid"].tolist() == [[1.0, 4.0], [8.0, 2.0]]
        assert npz["bin_grid"].tolist() == [[1, 4], [16, 1]]
    _assert_same_capture(load_capture(tmp_path / "cap", config), raw)


def test_plan_sidecar_is_small(tmp_path, config):
    # the grids, not per-pixel copies of them: a 512x512 capture with gain
    # and bin maps at roi 64 stores 64 gains, 64 factors and a 32 KB mask
    scene = _hdr_scene(config, 512)
    rng = np.random.default_rng(8)
    n = rng.choice([1, 4, 16, 64], (8, 8))
    gm = GainMap("per_roi", rng.uniform(1, 27, (8, 8)), roi_size=64)
    raw = simulate_capture(scene, gm, BinMap(64, n, "digital"), config, seed=9)
    save_capture(tmp_path / "cap", raw)
    assert (tmp_path / "cap.npz").stat().st_size < 64 * 1024


def test_per_pixel_capture_round_trip(tmp_path, config):
    raw, _ = capture_adaptive(_hdr_scene(config, 64), 2.0, config, seed=2)
    save_capture(tmp_path / "cap", raw)
    back = load_capture(tmp_path / "cap", config)
    _assert_same_capture(back, raw)
    assert back.gain.dtype == np.float64
    assert back.plan.grid(64, 64).expand(back.plan.bins).dtype == np.int64


def test_list_format_sidecar_rejected(tmp_path, config):
    raw = simulate_capture(_hdr_scene(config, 16), 1.0, None, config, seed=1)
    save_capture(tmp_path / "cap", raw)
    bins = raw.plan.grid(16, 16).expand(raw.plan.bins)
    old = {"seed": 1, "meta": {}, "gain": raw.gain.tolist(),
           "bin_factor": bins.tolist()}
    (tmp_path / "cap.json").write_text(json.dumps(old))
    with pytest.raises(DataError, match="format"):
        load_capture(tmp_path / "cap", config)


@pytest.mark.parametrize("key, value", [
    ("format", 2), ("roi_size", 0), ("roi_size", -16), ("roi_size", 2.5),
    ("roi_size", "16"), ("roi_size", True), ("roi_size", None),
    ("roi_size", 8), ("mode", "bogus"), ("mode", None), ("seed", "1"),
    ("seed", 1.5), ("meta", [1])])
def test_malformed_sidecar_rejected(tmp_path, config, key, value):
    # roi 8 puts the stored 1 x 1 grids on a 2 x 2 ROI grid
    raw = simulate_capture(_hdr_scene(config, 16), 1.0, None, config, seed=1)
    save_capture(tmp_path / "cap", raw)
    doc = json.loads((tmp_path / "cap.json").read_text())
    (tmp_path / "cap.json").write_text(json.dumps(dict(doc, **{key: value})))
    with pytest.raises(DataError):
        load_capture(tmp_path / "cap", config)


def test_missing_npz_rejected(tmp_path, config):
    raw = simulate_capture(_hdr_scene(config, 16), 1.0, None, config, seed=1)
    save_capture(tmp_path / "cap", raw)
    (tmp_path / "cap.npz").unlink()
    with pytest.raises(DataError):
        load_capture(tmp_path / "cap", config)


def test_npz_shape_mismatch_rejected(tmp_path, config):
    raw = simulate_capture(_hdr_scene(config, 16), 1.0, None, config, seed=1)
    save_capture(tmp_path / "cap", raw)
    with np.load(tmp_path / "cap.npz") as npz:
        arrays = dict(npz)
    for name, value in [
            ("saturation_mask", np.packbits(np.zeros((4, 4), bool))),
            ("saturation_mask", np.zeros((16, 16), bool)),
            ("gain_grid", np.ones((2, 2))),
            ("bin_grid", np.ones((1, 2), np.uint8))]:
        np.savez(tmp_path / "cap.npz", **dict(arrays, **{name: value}))
        with pytest.raises(DataError):
            load_capture(tmp_path / "cap", config)


def test_plan_values_off_the_ladder_rejected(tmp_path, config):
    raw = simulate_capture(_hdr_scene(config, 16), 1.0, None, config, seed=1)
    save_capture(tmp_path / "cap", raw)
    with np.load(tmp_path / "cap.npz") as npz:
        arrays = dict(npz)
    # the message names the rule that failed
    for name, value, rule in [
            ("gain_grid", [[0.0]], "positive gains"),
            ("gain_grid", [[-2.0]], "positive gains"),
            ("gain_grid", [[np.nan]], "positive gains"),
            ("gain_grid", [[np.inf]], "positive gains"),
            ("bin_grid", [[3]], "bin factors"),
            ("bin_grid", [[0]], "bin factors")]:
        np.savez(tmp_path / "cap.npz", **dict(arrays, **{name: value}))
        with pytest.raises(DataError, match=rule):
            load_capture(tmp_path / "cap", config)


def test_capture_from_deeper_adc_rejected(tmp_path, config):
    raw = simulate_capture(_hdr_scene(config, 16), 1.0, None, config, seed=1)
    save_capture(tmp_path / "cap", raw)
    with pytest.raises(DataError, match="digital_max"):
        load_capture(tmp_path / "cap", SensorConfig(bit_depth=8))


@pytest.mark.parametrize("payload", [b"Pf\nabc 4\n-1.0\n", b"Pf\n4 4\nxyz\n",
                                     b"Pf\n4\n"])
def test_malformed_pfm_header_is_data_error(tmp_path, payload):
    path = tmp_path / "bad.pfm"
    path.write_bytes(payload)
    with pytest.raises(DataError):
        read_pfm(path)


@pytest.mark.parametrize("payload", [b"P5\nabc 4\n65535\n", b"P5\n4\n65535\n",
                                     b"P5\n4 4\nmax\n"])
def test_malformed_pgm_header_is_data_error(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(DataError):
        read_pgm16(path)


def test_unwritable_paths_are_data_errors(tmp_path, config):
    raw = simulate_capture(_hdr_scene(config, 16), 1.0, None, config, seed=1)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for target in (tmp_path / "nodir" / "x", blocker / "x"):
        for write in (lambda p: write_pgm16(p, raw.digits),
                      lambda p: write_pfm(p, np.zeros((2, 2))),
                      lambda p: save_json(p, {}),
                      lambda p: save_capture(p, raw)):
            with pytest.raises(DataError, match="cannot write"):
                write(target)
    # a stack directory is created with its parents, but not under a file
    with pytest.raises(DataError, match="cannot write"):
        save_gain_stack(blocker / "stack",
                        GainStack(gains=(1.0,), frames=(raw,)))


def test_missing_files_are_data_errors(tmp_path):
    config = SensorConfig()
    with pytest.raises(DataError):
        read_pfm(tmp_path / "nope.pfm")
    with pytest.raises(DataError):
        read_pgm16(tmp_path / "nope.pgm")
    with pytest.raises(DataError):
        load_capture(tmp_path / "nope", config)
    with pytest.raises(DataError):
        load_gain_stack(tmp_path / "nostack", config)
    (tmp_path / "manifest.json").write_text('{"frames": [{"gain": 1}]}')
    with pytest.raises(DataError):
        load_gain_stack(tmp_path, config)
