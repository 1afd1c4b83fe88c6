"""Capture files: the PGM + sidecar (JSON + .npz) round trip and the
errors raised for malformed or missing files."""

import json

import numpy as np
import pytest

from svsensor import (BinMap, DataError, GainMap, SceneSpec, SensorConfig,
                      capture_adaptive, capture_spatially_varying,
                      load_and_normalize, simulate_capture)
from svsensor.fileio import (load_capture, load_gain_stack, read_pfm,
                             read_pgm16, save_capture)


def _hdr_scene(config, size, seed=1):
    spec = SceneSpec(source="hdr_blobs", seed=seed, width=size, height=size,
                     mean_level_frac=0.05)
    return load_and_normalize(spec, config)


def _assert_same_capture(a, b):
    assert np.array_equal(a.digits, b.digits)
    assert np.array_equal(a.gain, b.gain)
    assert np.array_equal(a.bin_factor, b.bin_factor)
    assert np.array_equal(a.saturation_mask, b.saturation_mask)
    assert a.seed == b.seed
    assert a.meta == b.meta


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
    raw = simulate_capture(_hdr_scene(config, 64), 2.0, None, config, seed=4)
    save_capture(tmp_path / "cap", raw)
    doc = json.loads((tmp_path / "cap.json").read_text())
    assert doc["format"] == 2
    assert doc["gain"] == 2.0
    assert doc["bin_factor"] == 1
    with np.load(tmp_path / "cap.npz") as npz:
        assert sorted(npz.files) == ["saturation_mask"]
    _assert_same_capture(load_capture(tmp_path / "cap", config), raw)


def test_per_roi_capture_round_trip(tmp_path, config):
    scene = _hdr_scene(config, 64)
    gm = GainMap("per_roi", np.array([[1.0, 4.0], [8.0, 2.0]]), roi_size=32)
    bm = BinMap(roi_size=32, factors=np.array([[1, 4], [16, 1]]),
                mode="average")
    raw, _ = capture_spatially_varying(scene, gm, bm, config, seed=6)
    save_capture(tmp_path / "cap", raw)
    doc = json.loads((tmp_path / "cap.json").read_text())
    assert doc["gain"] is None and doc["bin_factor"] is None
    with np.load(tmp_path / "cap.npz") as npz:
        assert sorted(npz.files) == ["bin_factor", "gain", "saturation_mask"]
    _assert_same_capture(load_capture(tmp_path / "cap", config), raw)


def test_per_pixel_capture_round_trip(tmp_path, config):
    raw, _ = capture_adaptive(_hdr_scene(config, 64), 2.0, config, seed=2)
    save_capture(tmp_path / "cap", raw)
    back = load_capture(tmp_path / "cap", config)
    _assert_same_capture(back, raw)
    assert back.gain.dtype == np.float64 and back.bin_factor.dtype == np.int64


def test_list_format_sidecar_rejected(tmp_path, config):
    raw = simulate_capture(_hdr_scene(config, 16), 1.0, None, config, seed=1)
    save_capture(tmp_path / "cap", raw)
    old = {"seed": 1, "meta": {}, "gain": raw.gain.tolist(),
           "bin_factor": raw.bin_factor.tolist()}
    (tmp_path / "cap.json").write_text(json.dumps(old))
    with pytest.raises(DataError, match="format"):
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
    np.savez(tmp_path / "cap.npz", saturation_mask=np.zeros((4, 4), bool))
    with pytest.raises(DataError):
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
