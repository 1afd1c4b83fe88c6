"""Sensor model: ADC behavior, noise statistics, estimator bias/variance,
determinism."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import svsensor.sensor as sensor_mod
from svsensor import (BinMap, ConfigError, DataError, GainMap,
                      NumericalError, PhotonEstimate, Plan, RadianceMap,
                      RawCapture, RoiGrid, SensorConfig, ShapeError,
                      capture_adaptive, dequantize, estimate_photons,
                      evaluate_protocol, quantize, simulate_capture)
from svsensor.sensor import draw_noise, is_bin_factor


def mc_estimates(level, gain, config, n, seed):
    """Monte-Carlo oracle: n independent single-pixel estimates."""
    scene = RadianceMap(data=np.full((1, n), float(level)))
    raw = simulate_capture(scene, gain, None, config, seed=seed)
    est = estimate_photons(raw, config)
    return est.data[est.validity_mask]


def one_pixel(level):
    return RadianceMap(data=np.full((1, 1), float(level)))


class TestAdc:
    def test_zero_signal_zero_noise_hits_black_level(self, quiet_config):
        raw = simulate_capture(one_pixel(0.0), 1.0, None, quiet_config, seed=0)
        assert raw.digits[0, 0] == quiet_config.black_level

    def test_full_scale_saturates_any_gain(self, config):
        for g in (1.0, 2.0, 8.0, 27.0):
            raw = simulate_capture(one_pixel(2.0 * config.well_capacity), g,
                                   None, config, seed=1)
            assert raw.digits[0, 0] == config.digital_max
            assert raw.saturation_mask[0, 0]

    @given(fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
           bit_depth=st.integers(8, 16))
    @example(fracs=[0.0, 0.5, 1.0], bit_depth=12)
    def test_quantization_roundtrip_within_half_step(self, fracs, bit_depth):
        # away from the clamp boundaries (one step inside digit 0 and
        # digital_max) the ADC loses at most half a step
        config = SensorConfig(bit_depth=bit_depth)
        step = 1.0 / config.adc_slope
        lo = -config.black_level * step + step
        v = lo + np.asarray(fracs) * (config.well_capacity - step - lo)
        back = dequantize(quantize(v, config), config)
        assert np.max(np.abs(back - v)) <= 0.5 * step * (1 + 1e-12)

    def test_round_half_to_even(self, config):
        # a voltage exactly between two codes rounds to the even one
        slope = config.adc_slope
        v = np.array([100.5, 101.5]) / slope
        d = quantize(v, config).astype(int) - config.black_level
        assert d.tolist() == [100, 102]

    @pytest.mark.parametrize("black_level_frac", [0.05, 0.0])
    def test_clamp_equals_np_clip(self, black_level_frac):
        # the ADC clamps with np.maximum then np.minimum; its float digits
        # are bit for bit np.clip's on a sweep below digit 0, past full
        # scale and at half-integer codes.  np.maximum would turn a -0.0
        # into +0.0 where np.clip keeps it, but adding the black level (0
        # included) already makes the -0.0 that rint gives -0.4 into +0.0
        config = SensorConfig(black_level_frac=black_level_frac)
        codes = np.concatenate([
            np.arange(-config.black_level - 4.0, 6.0, 0.5),
            np.arange(config.digital_max - 5.0, config.digital_max + 5.0, 0.5),
            [-0.4, -0.0, 0.4, -1e9, 1e9]])
        v = codes / config.adc_slope
        d = v * config.adc_slope
        np.rint(d, out=d)
        d += config.black_level
        want = np.clip(d, 0, config.digital_max)
        got = sensor_mod._adc_in_place(v.copy(), config)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()
        assert {0.0, float(config.digital_max)} <= set(got.tolist())
        assert np.array_equal(quantize(v, config), want.astype(np.uint16))

    def test_dark_noise_symmetric_below_black_level(self, config):
        # digits must be able to fall below the black level, else dark noise
        # statistics get rectified
        est = mc_estimates(0.0, 1.0, config, 50000, seed=3)
        assert (est < 0).mean() > 0.4

    def test_invalid_gain_rejected(self, config):
        for g in (0.5, 100.0):
            with pytest.raises(ConfigError):
                simulate_capture(one_pixel(10.0), g, None, config, seed=4)


class TestNoiseStatistics:
    def test_dark_digit_std_matches_read_noise(self, config):
        scene = RadianceMap(data=np.zeros((200, 200)))
        for g in (1.0, 4.0):
            raw = simulate_capture(scene, g, None, config, seed=5)
            predicted = np.sqrt(g * g * config.sigma_pre ** 2
                                + config.sigma_post ** 2) * config.adc_slope
            measured = raw.digits.astype(float).std(ddof=1)
            assert abs(measured - predicted) / predicted < 0.05

    def test_estimator_unbiased(self, config):
        # inversion recovers the mean photon count across the usable range
        for level, gain, seed in [(100.0, 8.0, 6), (800.0, 1.0, 17),
                                  (1.0, 20.0, 18)]:
            est = mc_estimates(level, gain, config, 10 ** 5, seed=seed)
            se = est.std(ddof=1) / np.sqrt(est.size)
            assert abs(est.mean() - level) < max(4 * se, 0.3), (level, gain)

    def test_variance_law(self, config):
        # Var = m + sigma_pre^2 + sigma_post^2 / g^2 on a (level, gain) grid
        n = 10 ** 5
        for level, gain, seed in [(100.0, 1.0, 7), (10.0, 27.0, 8),
                                  (2.0, 27.0, 9), (150.0, 4.5, 10)]:
            est = mc_estimates(level, gain, config, n, seed=seed)
            pred = (level + config.sigma_pre ** 2
                    + config.sigma_post ** 2 / gain ** 2)
            se = pred * np.sqrt(2.0 / (est.size - 1))
            assert abs(est.var(ddof=1) - pred) < 3 * se, (level, gain)

    def test_gain_suppresses_post_amp_noise_only(self):
        # with no pre-amp noise, variance at max gain approaches the
        # photon-noise limit
        config = SensorConfig(sigma_pre=0.0)
        est = mc_estimates(10.0, config.gain_max, config, 10 ** 5, seed=11)
        pred_floor = 10.0 + config.sigma_post ** 2 / config.gain_max ** 2
        se = pred_floor * np.sqrt(2.0 / (est.size - 1))
        assert abs(est.var(ddof=1) - pred_floor) < 3 * se
        assert est.var(ddof=1) < 10.0 * 1.05

    def test_saturation_mask_tracks_threshold(self, config):
        # with all gains at max, pixels above lwc/gmax mostly saturate
        g = config.gain_max
        lo = mc_estimates(0.5 * config.well_capacity / g, g, config, 2000, 12)
        assert lo.size > 1900  # mostly valid below threshold
        scene = RadianceMap(
            data=np.full((40, 50), 1.5 * config.well_capacity / g))
        raw = simulate_capture(scene, g, None, config, seed=13)
        assert raw.saturation_mask.mean() > 0.95


class TestCaptureContracts:
    @given(height=st.integers(1, 100), width=st.integers(1, 100),
           roi=st.integers(1, 64), gain=st.floats(1.0, 27.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(height=100, width=70, roi=32, gain=2.0, seed=5)
    def test_scalar_gain_equals_roi_grid(self, height, width, roi, gain,
                                         seed):
        # one seed is one noise realization: a scalar gain, a per-pixel
        # plan of that gain, and a per-ROI grid of it with or without an
        # all-ones bin plan read the same draws, whether or not the ROI
        # size divides the frame
        config = SensorConfig()
        scene = RadianceMap(data=np.random.default_rng(seed).uniform(
            0, 600, (height, width)))
        shape = RoiGrid(height, width, roi).shape
        grid = GainMap("per_roi", np.full(shape, gain), roi_size=roi)
        a = simulate_capture(scene, gain, None, config, seed=seed)
        per_pixel = GainMap("per_pixel", np.full((height, width), gain))
        ones = BinMap(roi, np.ones(shape, np.int64), "digital")
        for gm, bm in ((grid, None), (per_pixel, None), (grid, ones)):
            b = simulate_capture(scene, gm, bm, config, seed=seed)
            assert np.array_equal(a.digits, b.digits)
            assert np.array_equal(a.saturation_mask, b.saturation_mask)
            assert np.array_equal(a.gain, b.gain)

    def test_different_seeds_differ(self, config, make_uniform):
        scene = make_uniform(50.0)
        a = simulate_capture(scene, 1.0, None, config, seed=1)
        b = simulate_capture(scene, 1.0, None, config, seed=2)
        assert not np.array_equal(a.digits, b.digits)

    def test_shape_mismatch_rejected(self, config, make_uniform):
        scene = make_uniform(50.0, 64, 64)
        gm = GainMap("per_pixel", np.ones((32, 32)))
        with pytest.raises(ShapeError):
            simulate_capture(scene, gm, None, config, seed=0)

    def test_bare_gain_array_is_a_shape_error(self, config, make_uniform):
        # a gain plan is a number or a GainMap; an array is neither a
        # per-pixel nor a per-ROI plan
        scene = make_uniform(50.0, 64, 64)
        bins = BinMap(32, 4 * np.ones((2, 2), dtype=np.int64), "digital")
        for gains, bm in ((np.full((64, 64), 2.0), bins),
                          (np.full((2, 2), 2.0), None)):
            with pytest.raises(ShapeError):
                simulate_capture(scene, gains, bm, config, seed=0)

    def test_estimate_masks_saturated(self, config, make_uniform):
        scene = make_uniform(5000.0)
        raw = simulate_capture(scene, 1.0, None, config, seed=16)
        est = estimate_photons(raw, config)
        assert not est.validity_mask.any()

    def test_black_level_decodes_to_zero(self, config):
        assert dequantize(np.array([config.black_level]), config)[0] == 0.0

    def test_bad_values_are_data_errors(self, config):
        with pytest.raises(DataError):
            RadianceMap(data=np.array([[1.0, np.nan]]))
        with pytest.raises(DataError):
            RadianceMap(data=np.array([[1.0, -1.0]]))
        with pytest.raises(DataError):
            PhotonEstimate(data=np.array([[np.inf]]),
                           validity_mask=np.array([[True]]))

    def test_means_beyond_poisson_are_data_errors(self, config):
        # the largest mean numpy's Poisson draw takes is a scene, and is
        # drawn; the next float up is a DataError, not the draw's ValueError
        top = sensor_mod._POISSON_MAX
        draw_noise(RadianceMap(data=np.array([[top]])), config, seed=1)
        with pytest.raises(DataError, match="Poisson"):
            RadianceMap(data=np.array([[1.0, np.nextafter(top, np.inf)]]))

    def test_empty_map_is_a_shape_error(self):
        for shape in ((0, 0), (0, 4), (4, 0)):
            with pytest.raises(ShapeError):
                RadianceMap(data=np.zeros(shape))

    def test_noise_draw_copies_no_scene(self, config):
        # at unit quantum efficiency the photon draw reads the scene as it
        # is: a 512 x 512 realization peaks at its own arrays (charge and
        # post-amp normals: 2 frames) plus one band's temporaries, under
        # 2.2 frames
        scene = RadianceMap(data=np.random.default_rng(7).uniform(
            0, 600, (512, 512)))
        tracemalloc.start()
        try:
            draw_noise(scene, config, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * scene.data.nbytes


class TestBandedDraw:
    """``draw_noise`` draws 16-row bands, each from its own stream."""

    @pytest.mark.parametrize("qe", [1.0, 0.6])
    @pytest.mark.parametrize("shape", [(1, 1), (15, 7), (17, 300),
                                       (300, 257), (512, 512)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_helper_draws_the_same_realization(self, shape, qe):
        # a short last band and frames of one band: the helper thread
        # changes no bit
        config = SensorConfig(quantum_efficiency=qe)
        scene = RadianceMap(data=np.random.default_rng(3).uniform(
            0, 900, shape))
        with ThreadPoolExecutor(1) as helper:
            for seed in (0, 2 ** 32 - 1):
                alone = draw_noise(scene, config, seed)
                shared = draw_noise(scene, config, seed, helper=helper)
                for a, b in ((alone.charge, shared.charge),
                             (alone.n_post, shared.n_post)):
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("qe", [1.0, 0.6])
    @pytest.mark.parametrize("b, c", [(0, 1), (1, 3), (2, 3), (0, 3)])
    def test_a_run_of_bands_is_drawn_alone(self, b, c, qe):
        # rows 16 b up to 16 c are bands b to c drawn on their own, band i
        # from SeedSequence(seed, spawn_key=(i,)), the child that spawn
        # gives: its photon arrivals, then its pre-amp and post-amp
        # normals; band 2 of 40 rows is short
        config = SensorConfig(quantum_efficiency=qe)
        scene = RadianceMap(data=np.random.default_rng(4).uniform(
            0, 900, (40, 7)))
        for seed in (0, 2 ** 32 - 1):
            noise = draw_noise(scene, config, seed)
            charge, n_post = [], []
            for i in range(b, c):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(i,)))
                mean = scene.data[16 * i:16 * i + 16] * qe
                arrivals = rng.poisson(mean).astype(np.float64)
                charge.append(arrivals + config.sigma_pre
                              * rng.standard_normal(mean.shape))
                n_post.append(config.sigma_post
                              * rng.standard_normal(mean.shape))
            rows = slice(16 * b, 16 * c)
            assert noise.charge[rows].tobytes() == np.vstack(charge).tobytes()
            assert noise.n_post[rows].tobytes() == np.vstack(n_post).tobytes()

    def test_no_two_bands_draw_the_same_values(self, config):
        scene = RadianceMap(data=np.full((64, 40), 300.0))
        noise = draw_noise(scene, config, 5)
        assert np.unique(noise.n_post).size == noise.n_post.size
        bands = noise.charge.reshape(4, -1)
        assert len({band.tobytes() for band in bands}) == 4

    def test_a_realization_is_its_unit_pixel_draws(self, config):
        # no draw depth: an old positional max_k is a TypeError, not taken
        # as the helper executor
        scene = RadianceMap(data=np.full((20, 12), 30.0))
        with pytest.raises(TypeError):
            draw_noise(scene, config, 1, 8)
        noise = draw_noise(scene, config, 1)
        assert [f.name for f in fields(noise)] == ["seed", "charge", "n_post"]
        assert noise.charge.shape == noise.n_post.shape == (20, 12)

    @pytest.mark.parametrize("thread", ["helper", "caller"])
    @pytest.mark.parametrize("capture", [
        lambda scene, config: simulate_capture(scene, 2.0, None, config, 1),
        lambda scene, config: capture_adaptive(scene, 2.0, config, 1)],
        ids=["simulate", "adaptive"])
    def test_band_error_reaches_the_caller(self, config, monkeypatch,
                                           capture, thread):
        # one band of either thread's share fails: the error is raised to
        # the capture's caller, and its helper thread is gone
        real, caller = sensor_mod.draw_photons, threading.get_ident()
        failed = []

        def failing_once(rng, mean):
            if not failed and (threading.get_ident() == caller) == (
                    thread == "caller"):
                failed.append(1)
                raise NumericalError("injected")
            return real(rng, mean)

        monkeypatch.setattr(sensor_mod, "draw_photons", failing_once)
        scene = RadianceMap(data=np.full((70, 20), 50.0))
        before = threading.active_count()
        with pytest.raises(NumericalError, match="injected"):
            capture(scene, config)
        assert failed and threading.active_count() == before


@pytest.mark.parametrize("seed", [None, True, -1, 1.5, "3"],
                         ids=["none", "bool", "negative", "float", "str"])
@pytest.mark.parametrize("capture", [
    lambda scene, config, seed: simulate_capture(scene, 1.0, None, config,
                                                 seed),
    lambda scene, config, seed: capture_adaptive(scene, 2.0, config, seed),
    lambda scene, config, seed: evaluate_protocol(scene, config, 16,
                                                  seed=seed)],
    ids=["simulate", "adaptive", "evaluate"])
def test_bad_seed_rejected_before_any_draw(config, monkeypatch, capture,
                                           seed):
    # a seed is a nonnegative integer: None would draw from OS entropy and
    # leave the capture irreproducible, and True would pass as 1
    drawn = []
    monkeypatch.setattr(sensor_mod, "draw_photons",
                        lambda rng, mean: drawn.append(mean))
    with pytest.raises(ConfigError, match="seed"):
        capture(RadianceMap(data=np.full((32, 32), 50.0)), config, seed)
    assert drawn == []


class TestHeldArrays:
    """A radiance map, a capture and an estimate hold their arrays
    read-only, and leave the caller's own arrays writeable."""

    def test_radiance_map(self):
        data = np.full((4, 4), 50.0)
        scene = RadianceMap(data=data)
        assert data.flags.writeable
        assert not scene.data.flags.writeable
        data[0, 0] = 60.0  # the caller may still write its array

    def test_raw_capture(self):
        digits = np.zeros((4, 4), np.uint16)
        mask = np.zeros((4, 4), bool)
        raw = RawCapture(digits=digits, saturation_mask=mask,
                         plan=Plan(4, [[1.0]], [[1]], "digital"))
        assert digits.flags.writeable and mask.flags.writeable
        assert not raw.digits.flags.writeable
        assert not raw.saturation_mask.flags.writeable

    def test_photon_estimate(self):
        data = np.ones((4, 4))
        valid = np.ones((4, 4), bool)
        est = PhotonEstimate(data=data, validity_mask=valid)
        assert data.flags.writeable and valid.flags.writeable
        assert not est.data.flags.writeable
        assert not est.validity_mask.flags.writeable


class TestRawCapturePlan:
    # named by the sidecar fields that hold them: the .npz arrays gain_grid
    # and bin_grid, and the JSON's mode and roi_size
    FIELDS = {"gain_grid": "gains", "bin_grid": "bins", "mode": "mode",
              "roi_size": "roi_size"}

    @pytest.mark.parametrize("name, value", [
        ("mode", "bogus"), ("mode", None), ("gain_grid", [[np.nan]]),
        ("gain_grid", [[np.inf]]), ("gain_grid", [[0.0]]),
        ("gain_grid", [[-2.0]]), ("bin_grid", [[3]]), ("bin_grid", [[0]]),
        ("bin_grid", [[-4]]), ("bin_grid", [[2]]), ("bin_grid", [[128]]),
        ("bin_grid", [[4.5]]), ("bin_grid", [[64]]), ("roi_size", 0),
        ("roi_size", -4), ("roi_size", 4.0), ("roi_size", True),
        ("roi_size", None), ("roi_size", "4")])
    def test_plan_values_rejected(self, name, value):
        # the one plan check: a capture never holds a plan that
        # load_capture would refuse; at roi_size 4 the factor 64 (k = 8)
        # would cut its superpixels at the ROI edges
        plan = Plan(4, [[1.0]], [[1]], "digital")
        with pytest.raises(ConfigError):
            replace(plan, **{self.FIELDS[name]: value})

    def test_grids_of_one_shape(self):
        with pytest.raises(ShapeError):
            Plan(4, [[1.0, 1.0]], [[1]], "digital")
        with pytest.raises(ShapeError):
            Plan(4, [1.0], [1], "digital")
        with pytest.raises(ShapeError):
            RawCapture(digits=np.zeros((4, 8), np.uint16),
                       saturation_mask=np.zeros((4, 8), bool),
                       plan=Plan(4, [[1.0]], [[1]], "digital"))

    def test_every_ladder_factor_accepted(self):
        raw = RawCapture(digits=np.zeros((8, 32), np.uint16),
                         saturation_mask=np.zeros((8, 32), bool),
                         plan=Plan(8, np.full((1, 4), 27.0),
                                   np.uint8([[1, 4, 16, 64]]), "additive"))
        assert raw.plan.bins.dtype == np.int64
        assert raw.plan.bins[0].tolist() == [1, 4, 16, 64]
        assert raw.plan.gains.dtype == np.float64
        assert not raw.plan.bins.flags.writeable


@given(st.lists(st.one_of(st.integers(-70, 70),
                          st.integers(-2 ** 63, 2 ** 63 - 1)), max_size=40))
@example([-64, -1, 0, 1, 2, 3, 4, 15, 16, 17, 63, 64, 65, 66, 2 ** 63 - 1])
def test_is_bin_factor_is_ladder_membership(values):
    arr = np.array(values, dtype=np.int64)
    assert is_bin_factor(arr).tolist() == [v in {1, 4, 16, 64} for v in values]
    assert is_bin_factor(arr.reshape(-1, 1)).shape == (arr.size, 1)


class TestSerialization:
    def test_config_json_roundtrip(self, config):
        doc = config.to_json()
        again = SensorConfig.from_json(doc)
        assert again == config

    def test_config_json_field_names(self, config):
        import json
        doc = json.loads(config.to_json())
        assert set(doc) == {
            "pixel_pitch", "well_capacity", "sigma_pre", "sigma_post",
            "bit_depth", "black_level_frac", "gain_min", "gain_max",
            "quantum_efficiency"}

    def test_derived_constants_follow_replace(self, config):
        # the ADC constants are cached on each config: a replaced config
        # derives its own, and equality and JSON still see the nine fields
        import json
        assert (config.digital_max, config.black_level) == (4095, 205)
        eight = replace(config, bit_depth=8)
        assert (eight.digital_max, eight.black_level) == (255, 13)
        assert eight.adc_slope == (255 - 13) / 1000.0
        assert config.adc_slope == (4095 - 205) / 1000.0
        assert config == SensorConfig() and eight == SensorConfig(bit_depth=8)
        assert eight != config and hash(config) == hash(SensorConfig())
        assert json.loads(eight.to_json()) == dict(
            json.loads(config.to_json()), bit_depth=8)
        assert len(json.loads(config.to_json())) == 9

    def test_config_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            SensorConfig.from_json('{"well_capacity": 10, "dark_current": 1}')

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            SensorConfig(well_capacity=-5)
        with pytest.raises(ConfigError):
            SensorConfig(gain_min=4.0, gain_max=2.0)
        with pytest.raises(ConfigError):
            SensorConfig(black_level_frac=1.5)
        with pytest.raises(ConfigError):
            SensorConfig(bit_depth=32)
