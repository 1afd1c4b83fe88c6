"""Gain planning: the headroom rule, ROI and per-pixel strategies,
vignetting maps, ladder quantization."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from svsensor import (ConfigError, DataError, GainMap, PhotonEstimate,
                      RadianceMap, SensorConfig, capture_adaptive,
                      gain_for_level, gain_from_vignetting, next_gain,
                      plan_gain_roi, quantize, quantize_to_ladder,
                      simulate_capture)
from svsensor.gain import _safe_gains
from svsensor.sensor import dequantize, draw_noise

from conftest import roi_slices


def snapshot_from(levels, valid=None):
    data = np.asarray(levels, dtype=float)
    mask = np.ones_like(data, dtype=bool) if valid is None else np.asarray(valid)
    return PhotonEstimate(data=data, validity_mask=mask)


class TestGainRule:
    def test_headroom_algebra(self, config):
        # well 1000, level 100, eta 2 -> 1000 / 120
        assert gain_for_level(100.0, 2.0, config) == pytest.approx(1000.0 / 120.0)

    def test_dark_pixel_gets_max_gain(self, config):
        assert gain_for_level(0.0, 2.0, config) == config.gain_max

    def test_clamped_to_bounds(self, config):
        assert gain_for_level(1e-6, 2.0, config) == config.gain_max
        assert gain_for_level(1e9, 2.0, config) == config.gain_min

    def test_monotone_nonincreasing(self, config):
        levels = np.linspace(0.0, 2000.0, 400)
        gains = [gain_for_level(m, 2.0, config) for m in levels]
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))
        # an array of levels gets the same gains, bit for bit
        assert gain_for_level(levels, 2.0, config).tolist() == gains

    def test_negative_level_rejected(self, config):
        with pytest.raises(DataError):
            gain_for_level(-1.0, 2.0, config)
        with pytest.raises(DataError):
            gain_for_level(np.array([1.0, -1.0]), 2.0, config)

    @pytest.mark.parametrize("level", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, config, level):
        with pytest.raises(DataError):
            gain_for_level(level, 2.0, config)
        with pytest.raises(DataError):
            gain_for_level(np.array([1.0, level]), 2.0, config)

    @pytest.mark.parametrize("eta", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_eta_rejected(self, config, eta):
        with pytest.raises(ConfigError):
            gain_for_level(1.0, eta, config)
        with pytest.raises(ConfigError):
            GainMap("constant", 2.0, eta=eta)
        with pytest.raises(ConfigError):
            capture_adaptive(RadianceMap(data=np.ones((2, 2))), eta, config)

    def test_saturation_probability_at_planned_gain(self, config):
        # eta = 2 leaves roughly a 2.2% saturation probability; Poisson skew
        # pushes the Monte-Carlo value a little above the Gaussian 2.28%
        level = 400.0
        g = gain_for_level(level, 2.0, config)
        scene = RadianceMap(data=np.full((500, 500), level))
        raw = simulate_capture(scene, g, None, config, seed=21)
        frac = raw.saturation_mask.mean()
        assert 0.017 <= frac <= 0.027


class TestRoiPlanner:
    def test_two_roi_example(self):
        config = SensorConfig(gain_max=200.0)
        levels = np.zeros((8, 16))
        levels[:, :8] = 10.0
        levels[:, 8:] = 900.0
        gm, _ = plan_gain_roi(snapshot_from(levels), 8, 0.0, config)
        assert gm.values.shape == (1, 2)
        assert gm.values[0, 0] == pytest.approx(100.0)
        assert gm.values[0, 1] == pytest.approx(1000.0 / 900.0)

    def test_uniform_image_reduces_to_scalar_rule(self, config):
        gm, _ = plan_gain_roi(snapshot_from(np.full((32, 32), 50.0)), 16,
                              2.0, config)
        expected = gain_for_level(50.0, 2.0, config)
        assert np.allclose(gm.values, expected)

    def test_protects_the_brightest_pixel(self, config):
        levels = np.full((16, 16), 10.0)
        levels[3, 5] = 800.0
        gm, _ = plan_gain_roi(snapshot_from(levels), 16, 2.0, config)
        assert gm.values[0, 0] == pytest.approx(gain_for_level(800.0, 2.0, config))

    def test_darker_roi_gets_larger_gain(self, config):
        rng = np.random.default_rng(22)
        levels = np.hstack([rng.uniform(1, 5, (16, 16)),
                            rng.uniform(500, 900, (16, 16))])
        gm, _ = plan_gain_roi(snapshot_from(levels), 16, 2.0, config)
        assert gm.values[0, 0] > gm.values[0, 1]

    def test_all_saturated_roi_falls_back_to_min_gain(self, config):
        levels = np.full((16, 16), 100.0)
        valid = np.zeros_like(levels, dtype=bool)
        gm, report = plan_gain_roi(snapshot_from(levels, valid), 16, 2.0, config)
        assert gm.values[0, 0] == config.gain_min
        assert (0, 0) in report.empty_rois

    def test_roi_size_floor(self, config):
        with pytest.raises(ConfigError):
            plan_gain_roi(snapshot_from(np.ones((16, 16))), 4, 2.0, config)

    @given(peaks=st.lists(st.floats(0.0, 3000.0), min_size=2, max_size=8),
           eta=st.floats(0.0, 6.0))
    def test_gain_nonincreasing_in_roi_peak(self, peaks, eta):
        # each 8x8 ROI holds dimmer pixels around one pixel at its peak
        config = SensorConfig()
        rng = np.random.default_rng(len(peaks))
        data = np.kron(np.asarray(peaks)[None, :], np.ones((8, 8)))
        data *= rng.uniform(0.0, 1.0, data.shape)
        data[3, 5::8] = peaks
        gm, _ = plan_gain_roi(snapshot_from(data), 8, eta, config)
        order = np.argsort(peaks, kind="stable")
        assert np.all(np.diff(gm.values[0][order]) <= 0)

    def test_plan_never_exits_gain_bounds(self, config):
        rng = np.random.default_rng(23)
        levels = rng.uniform(0, 3000, (64, 64))
        gm, _ = plan_gain_roi(snapshot_from(levels), 8, 2.0, config)
        assert gm.values.min() >= config.gain_min
        assert gm.values.max() <= config.gain_max


def chain_capture(scene, eta, config, seed):
    """The closed loop as a plain chain, one pixel at a time in C order:
    ``quantize`` then ``next_gain`` over the capture's own realization."""
    noise = draw_noise(scene, config, seed)
    digits, gains, g = [], [], 1.0
    for c, post in zip(noise.charge.ravel().tolist(),
                       noise.n_post.ravel().tolist()):
        d = int(quantize(g * c + post, config))
        digits.append(d)
        gains.append(g)
        g = next_gain(d, g, eta, config)
    shape = scene.data.shape
    return (np.array(digits, dtype=np.uint16).reshape(shape),
            np.array(gains, dtype=np.float64).reshape(shape))


def assert_matches_chain(scene, eta, config, seed):
    raw, report = capture_adaptive(scene, eta, config, seed=seed)
    digits, gains = chain_capture(scene, eta, config, seed)
    assert raw.digits.tobytes() == digits.tobytes()
    assert raw.gain.tobytes() == gains.tobytes()
    sat = digits == config.digital_max
    assert np.array_equal(raw.saturation_mask, sat)
    assert report.measured_saturation_frac == float(sat.mean())
    return raw


class TestPerPixelPlanner:
    def test_constant_scene_converges_in_one_step(self, quiet_config,
                                                  monkeypatch):
        # noiseless limit: after the first readout the gain locks onto the
        # fixed point of the headroom rule
        import svsensor.sensor as sensor_mod
        monkeypatch.setattr(sensor_mod, "draw_photons",
                            lambda rng, m: np.array(m, dtype=np.float64))
        scene = RadianceMap(data=np.full((4, 8), 200.0))
        raw, _ = capture_adaptive(scene, 2.0, quiet_config, seed=24)
        expected = gain_for_level(200.0, 2.0, quiet_config)
        gains = raw.gain.ravel()
        assert gains[0] == 1.0
        # quantization nudges the estimate by a fraction of an electron
        assert np.allclose(gains[1:], expected, rtol=5e-3)

    def test_step_edge_saturates_exactly_one_pixel(self, config):
        # dark -> bright step: the planner walks into the edge blind, the
        # first bright pixel saturates, the next resets to gain 1
        scene_row = np.full(32, 4.0)
        scene_row[16:] = 900.0
        scene = RadianceMap(data=scene_row.reshape(1, 32))
        raw, report = capture_adaptive(scene, 4.0, config, seed=25)
        sat = raw.saturation_mask.ravel()
        assert sat[16]
        assert sat.sum() == 1
        assert raw.gain.ravel()[17] == 1.0

    def test_next_gain_matches_decode(self):
        # the scalar rule equals, bit for bit, the array path of the vector
        # body: dequantize, divide by the gain, the array rule with its dark
        # reset, then the saturate reset; for every digit, and for NumPy
        # integer digits below the black level, which must not wrap
        for config in (SensorConfig(), SensorConfig(bit_depth=8),
                       SensorConfig(gain_max=2.0)):
            d = np.arange(config.digital_max + 1)
            below = d[:config.black_level]
            for g in [1.0, 1.3, *np.geomspace(1.0, config.gain_max, 4)[1:]]:
                for eta in (0.0, 2.0, 4.0):
                    want = _safe_gains(dequantize(d, config) / g, eta, config)
                    want[d == config.digital_max] = 1.0
                    want = want.tolist()
                    assert [next_gain(k, g, eta, config)
                            for k in d.tolist()] == want, (config, g, eta)
                    for kind in (np.uint16, np.int64):
                        assert [next_gain(k, g, eta, config)
                                for k in below.astype(kind)] == want[
                                    :below.size], (config, g, eta, kind)

    def test_natural_scene_saturation_small(self, config):
        from svsensor import SceneSpec, load_and_normalize
        spec = SceneSpec(source="hdr_blobs", seed=7, width=96, height=96,
                         mean_level_frac=0.05)
        scene = load_and_normalize(spec, config)
        _, report = capture_adaptive(scene, 4.0, config, seed=26)
        assert report.measured_saturation_frac <= 0.06

    def test_adaptive_capture_pinned(self, config):
        # digits and gains of a 64x64 closed-loop capture, fixed so that a
        # rewrite of the loop cannot change a single bit of its output
        from svsensor import SceneSpec, load_and_normalize
        spec = SceneSpec(source="hdr_blobs", seed=3, width=64, height=64,
                         mean_level_frac=0.05)
        scene = load_and_normalize(spec, config)
        raw, _ = capture_adaptive(scene, 2.0, config, seed=11)
        digest = hashlib.sha256(raw.digits.tobytes()
                                + raw.gain.tobytes()).hexdigest()
        assert digest == ("6de6f76bae2e42456dce898047203304"
                          "72998016aec726f7a7aba6d7325a0f0d")
        # the loop follows the library's own streaming rule, saturation
        # resets and dark readouts included
        d = raw.digits.ravel().tolist()
        g = raw.gain.ravel().tolist()
        assert g[0] == 1.0
        assert raw.saturation_mask.any() and max(g) == config.gain_max
        for k in range(1, len(d)):
            assert g[k] == next_gain(d[k - 1], g[k - 1], 2.0, config), k

    # 1 x n and n x 1 scans, a frame of one pixel, and frames shorter
    # than one chunk of 128 pixels (one padded chunk), of exactly three
    # chunks (no padding) and of three chunks and one pixel (a last chunk
    # of one pixel and 127 of padding)
    @example(h=1, w=1, eta=2.0, config=SensorConfig(), seed=0)
    @example(h=1, w=3, eta=0.0, config=SensorConfig(gain_max=2.0), seed=1)
    @example(h=37, w=1, eta=4.0, config=SensorConfig(bit_depth=8), seed=2)
    @example(h=7, w=13, eta=1.0, config=SensorConfig(), seed=3)
    @example(h=16, w=24, eta=2.0, config=SensorConfig(), seed=4)
    @example(h=11, w=35, eta=4.0, config=SensorConfig(gain_max=2.0), seed=5)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), eta=st.floats(0.0, 6.0),
           config=st.sampled_from([SensorConfig(), SensorConfig(gain_max=2.0),
                                   SensorConfig(bit_depth=8)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_capture_matches_the_plain_chain(self, h, w, eta, config, seed):
        # levels over five decades: dark, lit and saturating pixels mix, so
        # chunk guesses both hold and miss
        rng = np.random.default_rng(seed)
        levels = rng.lognormal(0.0, 2.0, (h, w)) * rng.uniform(0.1, 100.0)
        assert_matches_chain(RadianceMap(data=levels), eta, config, seed)

    def test_unclamped_frame_repairs_every_chunk(self, config):
        # no pixel after the first clamps its gain, so no chunk's guessed
        # start gain can be right and every chunk is recomputed; the 64 x 64
        # frame's 32 chunks merge only where two trajectories meet bit for
        # bit, and one that does not hands its end gain to the next round
        for side, level, seed in ((40, 100.0, 27), (64, 300.0, 29)):
            scene = RadianceMap(data=np.full((side, side), level))
            raw = assert_matches_chain(scene, 10.0, config, seed=seed)
            g = raw.gain.ravel()[1:]
            assert np.all((g > config.gain_min) & (g < config.gain_max))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_step_edge_across_a_chunk_boundary(self, config, offset):
        # 30 x 30 scans in chunks of 128 pixels: dark up to about pixel
        # 384, where chunk 3 starts, then bright enough to saturate at gain 1
        levels = np.zeros(900)
        levels[384 + offset:] = 5000.0
        scene = RadianceMap(data=levels.reshape(30, 30))
        raw = assert_matches_chain(scene, 2.0, config, seed=28)
        g = raw.gain.ravel()
        assert raw.saturation_mask.ravel()[384 + offset]
        assert g[384 + offset] == config.gain_max and g[385 + offset] == 1.0

    def test_integer_gain_max_guesses_as_float(self, monkeypatch):
        # a JSON config may give gain_max as an int; the chunks' start
        # guesses must still be float gains, so every step of the scan,
        # speculative and repairing, reads the same amplified signal as
        # with the float gain_max, and the capture is the same
        from svsensor import SceneSpec, load_and_normalize
        import svsensor.gain as gain_mod
        adc = gain_mod._adc_in_place
        seen = []

        def recorded(v, config):
            seen.append(v.tobytes())
            return adc(v, config)

        monkeypatch.setattr(gain_mod, "_adc_in_place", recorded)
        steps, outputs = [], []
        for text in ('{"gain_max": 27}', '{"gain_max": 27.0}'):
            config = SensorConfig.from_json(text)
            spec = SceneSpec(source="hdr_blobs", seed=1, width=256,
                             height=256, mean_level_frac=0.05)
            seen.clear()
            raw, _ = capture_adaptive(load_and_normalize(spec, config), 2.0,
                                      config, seed=1)
            steps.append(list(seen))
            outputs.append(raw.digits.tobytes() + raw.gain.tobytes())
        assert isinstance(SensorConfig.from_json('{"gain_max": 27}').gain_max,
                          int)
        assert len(steps[0]) > 128  # the speculative pass and its repairs
        assert steps[0] == steps[1]
        assert outputs[0] == outputs[1]

    def test_adaptive_capture_pinned_ragged(self, config):
        # 300 x 257 = 77100 pixels is 602 chunks of 128 and 44 pixels, so
        # the last chunk is padded, and the scan has repairs to make
        from svsensor import SceneSpec, load_and_normalize
        spec = SceneSpec(source="hdr_blobs", seed=5, width=257, height=300,
                         mean_level_frac=0.05)
        scene = load_and_normalize(spec, config)
        raw, _ = capture_adaptive(scene, 4.0, config, seed=13)
        digest = hashlib.sha256(raw.digits.tobytes()
                                + raw.gain.tobytes()).hexdigest()
        assert digest == ("ea2b8aaf1f5eb0d2dc195691820efeac"
                          "1677262bff088f8dbc0c15d043959115")


class TestVignetting:
    def test_uniform_transmission_gives_unit_gain(self, config):
        gm = gain_from_vignetting(np.ones((32, 32)), 8, 2.0, config)
        assert np.allclose(gm.values, 1.0)

    def test_corner_gain_inverse_to_transmission(self):
        config = SensorConfig(gain_max=50.0)
        t = np.ones((32, 32))
        t[:8, :8] = 0.25
        gm = gain_from_vignetting(t, 8, 2.0, config)
        assert gm.values[0, 0] == pytest.approx(4.0)
        assert gm.values[2, 2] == pytest.approx(1.0)

    def test_gain_is_center_over_each_rois_own_mean(self):
        # edge ROIs of a frame the ROI size does not divide average only
        # their own pixels
        config = SensorConfig(gain_max=50.0)
        t = np.random.default_rng(5).uniform(0.05, 1.0, (300, 257))
        gm = gain_from_vignetting(t, 16, 2.0, config)
        means = np.zeros(gm.values.shape)
        for ij, sl in roi_slices(300, 257, 16):
            means[ij] = np.mean(t[sl].copy())
        want = np.clip(means[9, 8] / means, config.gain_min, config.gain_max)
        assert gm.values.tolist() == want.tolist()

    def test_zero_transmission_rejected(self, config):
        t = np.ones((16, 16))
        t[0, 0] = 0.0
        with pytest.raises(DataError):
            gain_from_vignetting(t, 8, 2.0, config)


class TestLadder:
    def test_snaps_downward(self, config):
        gm = GainMap("per_roi", np.array([[1.5, 8.0], [26.9, 2.0]]),
                     roi_size=8)
        snapped = quantize_to_ladder(gm, [1.0, 2.0, 4.0, 8.0, 16.0])
        assert snapped.values.tolist() == [[1.0, 8.0], [16.0, 2.0]]

    def test_below_ladder_rejected(self, config):
        gm = GainMap("per_roi", np.array([[1.0]]), roi_size=8)
        with pytest.raises(DataError):
            quantize_to_ladder(gm, [2.0, 4.0])


class TestGainMapType:
    @given(mode=st.sampled_from(["constant", "per_roi", "per_pixel"]),
           rows=st.integers(1, 6), cols=st.integers(1, 6),
           eta=st.floats(0.0, 8.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_json_roundtrip(self, mode, rows, cols, eta, seed):
        rng = np.random.default_rng(seed)
        shape = () if mode == "constant" else (rows, cols)
        gm = GainMap(mode, rng.uniform(1.0, 27.0, shape),
                     roi_size=16 if mode == "per_roi" else None, eta=eta)
        again = GainMap.from_json_dict(json.loads(json.dumps(
            gm.to_json_dict())))
        assert again.mode == gm.mode
        assert again.roi_size == gm.roi_size
        assert again.eta == gm.eta
        assert again.values.shape == gm.values.shape
        assert np.array_equal(again.values, gm.values)

    @pytest.mark.parametrize("key, value", [
        ("roi_size", "32"), ("roi_size", 2.5), ("roi_size", True),
        ("eta", "x"), ("eta", None), ("roi_size", -5), ("roi_size", 0)])
    def test_wrong_typed_fields_rejected(self, key, value):
        # in every mode: a constant or per-pixel plan need not name an ROI
        # size, but one that does names a positive integer
        for gm in (GainMap("per_roi", np.ones((1, 1)), roi_size=32),
                   GainMap("constant", 2.0),
                   GainMap("per_pixel", np.ones((3, 2)))):
            doc = gm.to_json_dict()
            with pytest.raises(DataError):
                GainMap.from_json_dict(dict(doc, **{key: value}))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            GainMap("roi", np.ones((2, 2)), roi_size=8)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gain_rejected(self, value):
        with pytest.raises(ConfigError):
            GainMap("constant", value)
        with pytest.raises(ConfigError):
            GainMap("per_roi", np.array([[1.0, value]]), roi_size=8)
