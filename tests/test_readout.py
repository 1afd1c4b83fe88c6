"""Binning modes, spatially-varying capture, gain-stack composition.

Mode variances are checked against their closed forms by Monte Carlo over
uniform scenes; the composition emulator is checked for statistical
equivalence with direct capture.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from svsensor import (BinMap, ConfigError, DataError, GainMap, GainStack,
                      PhotonEstimate, Plan, RadianceMap, SensorConfig,
                      ShapeError, bin_capture, capture_spatially_varying,
                      compose_from_gain_stack, estimate_photons,
                      plan_bin_roi, quantize_to_ladder, simulate_capture)
from svsensor.readout import fit_plan, read_blocks, read_plan
from svsensor.roi import RoiGrid
import svsensor.sensor as sensor_mod
from svsensor.sensor import BIN_MODES, draw_noise, quantize, roi_ladder

from conftest import roi_slices


def binned_estimates(level, gain, factor, mode, config, n_super, seed):
    """n_super independent superpixel estimates of a uniform scene."""
    k = math.isqrt(factor)
    side = math.isqrt(n_super)
    scene = RadianceMap(data=np.full((side * k, side * k), float(level)))
    raw = bin_capture(scene, gain, factor, mode, config, seed=seed)
    est = estimate_photons(raw, config)
    return est.data[est.validity_mask]


def compose_by_roi_loop(stack, gains, roi):
    """Oracle: copy each ROI in row-major order from the frame at its
    planned gain; DataError at the first ROI that frame bins unevenly."""
    h, w = stack.frames[0].digits.shape
    digits = np.empty((h, w), dtype=np.uint16)
    sat = np.empty((h, w), dtype=bool)
    bins = np.empty(gains.shape, dtype=np.int64)
    provenance = np.empty(gains.shape, dtype=np.int64)
    for (i, j), sl in roi_slices(h, w, roi):
        idx = stack.gains.index(gains[i, j])
        frame = stack.frames[idx]
        factors = frame.plan.grid(h, w).expand(frame.plan.bins)[sl]
        if np.any(factors != factors[0, 0]):
            raise DataError(f"stack frame {idx} is binned unevenly over ROI "
                            f"({i}, {j}) of the composite")
        digits[sl] = frame.digits[sl]
        sat[sl] = frame.saturation_mask[sl]
        bins[i, j], provenance[i, j] = factors[0, 0], idx
    return digits, sat, bins, provenance


def predicted_variance(level, gain, factor, mode, config):
    shot = level / factor
    pre = config.sigma_pre ** 2 / factor
    if mode == "additive":
        g_hat = gain / factor
        post = config.sigma_post ** 2 / (factor * g_hat) ** 2
    elif mode == "average":
        post = config.sigma_post ** 2 / gain ** 2
    else:
        post = config.sigma_post ** 2 / (factor * gain ** 2)
    return shot + pre + post


class TestBinModes:
    def test_variances_match_closed_forms(self, config):
        n = 40000
        cells = [(50.0, 4.0, 4), (20.0, 8.0, 4), (20.0, 16.0, 16)]
        seed = 40
        for level, gain, factor in cells:
            for mode in ("additive", "average", "digital"):
                seed += 1
                est = binned_estimates(level, gain, factor, mode, config,
                                       n, seed)
                pred = predicted_variance(level, gain, factor, mode, config)
                se = pred * math.sqrt(2.0 / (est.size - 1))
                assert abs(est.var(ddof=1) - pred) < 3 * se, (level, gain,
                                                              factor, mode)

    def test_mean_preserved_all_modes(self, config):
        for mode in ("additive", "average", "digital"):
            est = binned_estimates(12.0, 16.0, 16, mode, config, 22500, 50)
            se = est.std(ddof=1) / math.sqrt(est.size)
            assert abs(est.mean() - 12.0) < 4 * se, mode

    def test_photon_term_reduced_by_factor(self, config):
        # estimate variance with read noise off isolates the shot term
        quiet = SensorConfig(sigma_pre=0.0, sigma_post=0.0)
        for factor in (4, 16):
            est = binned_estimates(80.0, 4.0, factor, "digital", quiet,
                                   40000, 51)
            pred = 80.0 / factor
            se = pred * math.sqrt(2.0 / (est.size - 1))
            assert abs(est.var(ddof=1) - pred) < 4 * se

    def test_additive_post_term_equals_unbinned(self, config):
        # with g_hat = g/N the additive post-amp contribution collapses to
        # sigma_post^2 / g^2, exactly the unbinned law
        level, gain, factor = 30.0, 8.0, 4
        add = predicted_variance(level, gain, factor, "additive", config)
        assert add - level / factor - config.sigma_pre ** 2 / factor == \
            pytest.approx(config.sigma_post ** 2 / gain ** 2)

    def test_additive_beats_digital_at_fixed_amplifier_gain(self, config):
        # both modes running their amplifier at the same small setting
        g_hat = 2.0
        add = binned_estimates(50.0, g_hat * 4, 4, "additive", config, 40000, 52)
        dig = binned_estimates(50.0, g_hat, 4, "digital", config, 40000, 53)
        assert add.var(ddof=1) < dig.var(ddof=1)

    def test_digital_beats_additive_when_large_gain_allowed(self, config):
        # equal amplified headroom: digital runs at g, additive at g/N
        gain, factor, level = 8.0, 4, 5.0
        add = binned_estimates(level, gain, factor, "additive", config,
                               40000, 54)
        dig = binned_estimates(level, gain, factor, "digital", config,
                               40000, 55)
        assert dig.var(ddof=1) < add.var(ddof=1)

    def test_additive_gain_underflow_rejected(self, config):
        scene = RadianceMap(data=np.full((8, 8), 10.0))
        with pytest.raises(ConfigError, match="gain_min"):
            bin_capture(scene, 2.0, 4, "additive", config, seed=56)

    def test_additive_amplifier_held_to_gain_max(self, config):
        # the amplifier runs at g / N, which the gain range bounds on both
        # sides; g itself may exceed gain_max
        scene = RadianceMap(data=np.full((8, 8), 10.0))
        bin_capture(scene, 4 * config.gain_max, 4, "additive", config, seed=57)
        with pytest.raises(ConfigError, match="gain_max"):
            bin_capture(scene, 4 * config.gain_max + 1, 4, "additive",
                        config, seed=57)

    def test_degenerate_factor_matches_plain_capture_stats(self, config):
        est = binned_estimates(40.0, 2.0, 1, "average", config, 40000, 57)
        pred = 40.0 + config.sigma_pre ** 2 + config.sigma_post ** 2 / 4.0
        se = pred * math.sqrt(2.0 / (est.size - 1))
        assert abs(est.var(ddof=1) - pred) < 3 * se
        assert abs(est.mean() - 40.0) < 4 * est.std() / math.sqrt(est.size)

    @pytest.mark.parametrize("k", [2, 8])
    @pytest.mark.parametrize("mode", ["additive", "average"])
    def test_analog_superpixel_reads_its_top_left_post_amp_normal(
            self, monkeypatch, mode, k):
        # noiseless photons and no pre-amp noise leave the closed form: the
        # binned charge read through the output chain of the superpixel's
        # top-left unit pixel, with that pixel's post-amp normal; 16-pixel
        # ROIs on a 45 x 30 frame cut the edge superpixels, which sum their
        # edge-replicated charge; no superpixel saturates, so every digit
        # shows its post-amp draw
        monkeypatch.setattr(sensor_mod, "draw_photons",
                            lambda rng, mean: np.array(mean, np.float64))
        config = SensorConfig(sigma_pre=0.0)
        (h, w), n = (45, 30), k * k
        scene = RadianceMap(data=np.random.default_rng(k).uniform(
            0, 400 / n, (h, w)))
        gain = 1.5 * n if mode == "additive" else 1.5
        raw = simulate_capture(scene, gain, BinMap(16, np.full((3, 2), n),
                                                   mode), config, seed=9)
        post = draw_noise(scene, config, 9).n_post[::k, ::k]
        charge = np.pad(scene.data, ((0, -h % k), (0, -w % k)), mode="edge")
        summed = charge.reshape(-(-h // k), k, -(-w // k), k).sum(axis=(1, 3))
        if mode == "additive":
            v = (gain / n) * np.minimum(summed, n * config.well_capacity)
        else:
            v = gain * (summed / n)
        sup = quantize(v + post, config)
        assert np.array_equal(
            raw.digits, np.repeat(np.repeat(sup, k, 0), k, 1)[:h, :w])
        assert not raw.saturation_mask.any()

    def test_indivisible_dimensions_rejected(self, config):
        scene = RadianceMap(data=np.full((30, 30), 10.0))
        with pytest.raises(ShapeError):
            bin_capture(scene, 8.0, 16, "digital", config, seed=58)

    def test_bin_capture_pinned(self, config):
        # digits and saturation masks of one capture per mode, fixed so
        # that a rewrite of the readout cannot change a single bit of them
        from svsensor import SceneSpec, load_and_normalize
        spec = SceneSpec(source="hdr_blobs", seed=3, width=64, height=64,
                         mean_level_frac=0.05)
        scene = load_and_normalize(spec, config)
        digest = hashlib.sha256()
        for mode, gain, factor, seed in [("additive", 16.0, 16, 11),
                                         ("average", 4.0, 4, 12),
                                         ("digital", 8.0, 64, 13)]:
            raw = bin_capture(scene, gain, factor, mode, config, seed=seed)
            digest.update(raw.digits.tobytes()
                          + raw.saturation_mask.tobytes())
        assert digest.hexdigest() == ("6dd9141e9547e054ad6b7a189d7d9e37"
                                      "bb07864184db438d8373f5cb35ddbdf6")

    def test_bin_capture_plan_describes_its_digits(self, config):
        # one digit per superpixel: the reduced capture's plan is its
        # gain at factor 1, so its estimate is its native view, one value
        # per superpixel decoded at the superpixel's gain
        scene = RadianceMap(data=np.full((24, 24), 40.0))
        raw = bin_capture(scene, 8.0, 64, "digital", config, seed=59)
        assert raw.digits.shape == (3, 3)
        assert (raw.plan.roi_size, raw.plan.mode) == (3, "digital")
        assert raw.plan.gains.tolist() == [[8.0]]
        assert raw.plan.bins.tolist() == [[1]]
        est = estimate_photons(raw, config)
        assert np.array_equal(est.data, ((raw.digits - config.black_level)
                                         / config.adc_slope) / 8.0)

    @given(mode=st.sampled_from(BIN_MODES), k=st.sampled_from([1, 2, 4, 8]),
           rows=st.integers(1, 3), cols=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_uniform_bin_map_equals_bin_capture(self, mode, k, rows, cols,
                                                seed):
        # a uniform per-ROI plan reads the same realization as the
        # whole-frame binned capture
        config = SensorConfig()
        scene = RadianceMap(data=np.random.default_rng(seed).uniform(
            0, 300, (16 * rows, 16 * cols)))
        factor = k * k
        gain = 2.0 * factor if mode == "additive" else 4.0
        bm = BinMap(roi_size=16, factors=np.full((rows, cols), factor),
                    mode=mode)
        raw, _ = capture_spatially_varying(scene, gain, bm, config, seed=seed)
        ref = bin_capture(scene, gain, factor, mode, config, seed=seed)
        assert np.array_equal(raw.digits[::k, ::k], ref.digits)
        assert np.array_equal(raw.saturation_mask[::k, ::k],
                              ref.saturation_mask)


def read_plan_reference(noise, gains, bins, mode, config, roi_size):
    """Oracle: the whole-frame readout chain.  Every bin factor is read out
    over the whole frame (edge-padded to a multiple of k, summed per k x k
    superpixel, quantized, replicated back to unit pixels) and written by
    ``np.where`` over the ROIs that carry it."""
    def block_sum(arr, k):
        h, w = arr.shape
        return arr.reshape(h // k, k, w // k, k).sum(axis=(1, 3))

    def replicate(arr, k):
        return np.repeat(np.repeat(arr, k, axis=0), k, axis=1)

    def pad(arr, k):
        h, w = arr.shape
        return np.pad(arr, ((0, -h % k), (0, -w % k)), mode="edge")

    charge = noise.charge
    h, w = charge.shape
    grid = RoiGrid(h, w, roi_size)
    gain = grid.expand(gains)
    unit = quantize(gain * charge + noise.n_post, config)
    unit_sat = unit == config.digital_max
    digits, sat = unit, unit_sat
    for n in np.unique(bins[bins > 1]).tolist():
        k = math.isqrt(n)
        if mode == "digital":
            d_sup = np.rint(block_sum(pad(unit, k), k) / n).astype(np.uint16)
            sat_sup = block_sum(pad(unit_sat, k), k) > 0
        else:
            g = gain[::k, ::k]
            summed = block_sum(pad(charge, k), k)
            if mode == "additive":
                summed = np.minimum(summed, n * config.well_capacity)
                v = (g / n) * summed + noise.n_post[::k, ::k]
            else:
                v = g * (summed / n) + noise.n_post[::k, ::k]
            d_sup = quantize(v, config)
            sat_sup = d_sup == config.digital_max
        sel = grid.expand(bins == n)
        digits = np.where(sel, replicate(d_sup, k)[:h, :w], digits)
        sat = np.where(sel, replicate(sat_sup, k)[:h, :w], sat)
    return digits, sat


class TestReadPlan:
    @given(h=st.integers(1, 70), w=st.integers(1, 70),
           roi=st.sampled_from([8, 16, 24, 32]), mode=st.sampled_from(BIN_MODES),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(h=64, w=64, roi=32, mode="additive", seed=1)
    @example(h=37, w=53, roi=8, mode="digital", seed=2)
    @example(h=70, w=70, roi=24, mode="average", seed=3)
    def test_matches_whole_frame_chain(self, h, w, roi, mode, seed):
        # byte for byte, on clipped edge ROIs and mixed factor grids; bright
        # pixels saturate unit pixels, and additive superpixels past N wells
        config = SensorConfig(gain_max=128.0)
        rng = np.random.default_rng(seed)
        scene = RadianceMap(data=rng.uniform(0, 400, (h, w))
                            * rng.choice([0.05, 1.0, 3.0], (h, w)))
        grid = RoiGrid(h, w, roi)
        factors = rng.choice([1, 2, 4, 8], grid.shape) ** 2
        gains = rng.uniform(1.0, 2.0, grid.shape)
        if mode == "additive":
            gains = gains * factors
        noise = draw_noise(scene, config, seed)
        raw = read_plan(noise, Plan(roi, gains, factors, mode), config)
        digits, sat = read_plan_reference(noise, gains, factors, mode, config,
                                          roi)
        assert raw.digits.dtype == digits.dtype
        assert np.array_equal(raw.digits, digits)
        assert np.array_equal(raw.saturation_mask, sat)


class TestReadBlocks:
    @given(h=st.integers(1, 70), w=st.integers(1, 70),
           roi=st.sampled_from([8, 12, 16, 20, 24, 32]),
           mode=st.sampled_from(BIN_MODES), seed=st.integers(0, 2 ** 32 - 1))
    @example(h=70, w=53, roi=32, mode="additive", seed=1)
    @example(h=37, w=70, roi=12, mode="average", seed=2)
    @example(h=9, w=9, roi=8, mode="digital", seed=3)
    def test_any_selection_equals_read_plan_blocks(self, h, w, roi, mode,
                                                   seed):
        # byte for byte: the kernel over any subset of an ROI group, in any
        # order, reads the digits and mask that the frame readout holds
        # there, on clipped edge ROIs too
        config = SensorConfig(gain_max=128.0)
        rng = np.random.default_rng(seed)
        scene = RadianceMap(data=rng.uniform(0, 400, (h, w))
                            * rng.choice([0.05, 1.0, 3.0], (h, w)))
        grid = RoiGrid(h, w, roi)
        factors = rng.choice(roi_ladder(roi), grid.shape) ** 2
        gains = rng.uniform(1.0, 2.0, grid.shape)
        if mode == "additive":
            gains = gains * factors
        plan = Plan(roi, gains, factors, mode)
        noise = draw_noise(scene, config, seed)
        raw = read_plan(noise, plan, config)
        for rs, cs, shape in grid.parts():
            cols = cs.stop - cs.start
            picked = rng.permutation(np.flatnonzero(
                rng.random((rs.stop - rs.start) * cols) < 0.6))
            at = np.divmod(picked, cols)
            digits, sat = read_blocks(noise, plan, config, grid, rs, cs,
                                      shape, at)
            assert digits.shape == sat.shape == (picked.size, *shape)
            assert digits.dtype == np.uint16 and sat.dtype == bool
            assert np.array_equal(
                digits, grid.blocks(raw.digits, rs, cs, shape)[at])
            assert np.array_equal(
                sat, grid.blocks(raw.saturation_mask, rs, cs, shape)[at])


class TestFitPlan:
    def test_fits_gain_plan_onto_frame(self):
        per_roi = GainMap("per_roi", np.array([[1.0, 2.0], [3.0, 4.0]]),
                          roi_size=16)
        plan = fit_plan(per_roi, None, (32, 20))
        assert (plan.roi_size, plan.mode) == (16, "digital")
        assert plan.gains.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert plan.bins.tolist() == [[1, 1], [1, 1]]
        # a constant plan is one ROI over the frame, or the bin plan's grid
        for gm in (GainMap("constant", 2.0), 2.0):
            plan = fit_plan(gm, None, (32, 20))
            assert (plan.roi_size, plan.gains.tolist()) == (32, [[2.0]])
        bins = BinMap(16, np.array([[4, 1], [16, 4]]), "average")
        plan = fit_plan(2.0, bins, (32, 20))
        assert (plan.roi_size, plan.mode) == (16, "average")
        assert plan.gains.tolist() == [[2.0] * 2] * 2
        assert np.array_equal(plan.bins, bins.factors)
        for shape in ((48, 20), (32, 33)):
            with pytest.raises(ShapeError):
                fit_plan(per_roi, None, shape)
        with pytest.raises(ShapeError):
            fit_plan(per_roi, BinMap(8, np.ones((4, 3), int), "digital"),
                     (32, 20))
        per_pixel = GainMap("per_pixel", np.arange(1.0, 641.0).reshape(32, 20))
        assert fit_plan(per_pixel, None, (32, 20)).roi_size == 1
        assert np.array_equal(fit_plan(per_pixel, None, (32, 20)).gains,
                              per_pixel.values)
        with pytest.raises(ShapeError):
            fit_plan(per_pixel, bins, (32, 20))


class TestSpatiallyVarying:
    @pytest.mark.parametrize("mode", BIN_MODES)
    def test_one_realization_reads_out_as_seeded_captures(self, mode):
        # the protocol's four plans read from one realization give the
        # captures that each plan's own seeded draw gives
        config = SensorConfig(gain_max=128.0)
        rng = np.random.default_rng(70)
        scene = RadianceMap(data=rng.uniform(0, 400, (72, 88)))
        shape = (5, 6)  # clipped 8-pixel ROIs on the bottom and right
        factors = rng.choice([1, 2, 4, 8], shape) ** 2
        gains = rng.uniform(1.0, 2.0, shape)
        unbinned = BinMap(16, np.ones(shape, dtype=int), "digital")
        binned = BinMap(16, factors, mode)
        plans = [(np.full(shape, 1.5), unbinned), (gains, unbinned),
                 (1.5 * factors, binned),
                 (gains * factors if mode == "additive" else gains, binned)]
        noise = draw_noise(scene, config, 71)
        for values, bm in plans:
            gm = GainMap("per_roi", values, roi_size=16)
            raw = read_plan(noise, Plan(16, values, bm.factors, bm.mode),
                            config)
            ref, ref_est = capture_spatially_varying(scene, gm, bm, config,
                                                     seed=71)
            assert np.array_equal(raw.digits, ref.digits)
            assert np.array_equal(raw.saturation_mask, ref.saturation_mask)
            assert np.array_equal(estimate_photons(raw, config).data,
                                  ref_est.data)
            assert (raw.seed, raw.meta) == (ref.seed, ref.meta)
            assert (raw.plan.roi_size, raw.plan.mode) == (16, bm.mode)
            assert np.array_equal(raw.plan.gains, values)
            assert np.array_equal(raw.plan.bins, bm.factors)

    def test_realization_is_read_only(self, config):
        scene = RadianceMap(data=np.full((20, 12), 30.0))
        noise = draw_noise(scene, config, 5)
        for arr in (noise.charge, noise.n_post):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            noise.charge[0, 0] = 0.0
        with pytest.raises(AttributeError):
            noise.charge = np.zeros((20, 12))

    def test_trivial_maps_equal_plain_capture(self, config):
        rng = np.random.default_rng(60)
        scene = RadianceMap(data=rng.uniform(0, 300, (64, 64)))
        gm = GainMap("per_roi", np.full((2, 2), 3.0), roi_size=32)
        bm = BinMap(roi_size=32, factors=np.ones((2, 2), dtype=int),
                    mode="digital")
        plain = simulate_capture(scene, gm, None, config, seed=61)
        varying, _ = capture_spatially_varying(scene, gm, bm, config, seed=61)
        assert np.array_equal(plain.digits, varying.digits)

    def test_dark_roi_binned_beats_unbinned(self, config):
        # deep-shadow block (about 5 e-): max gain + heavy binning scores a
        # strictly higher SSIM against the ground truth than the unbinned
        # unit-gain baseline
        from svsensor import gamma_correct, ssim
        rng = np.random.default_rng(64)
        from scipy.ndimage import gaussian_filter
        texture = 1.0 + 0.4 * gaussian_filter(rng.standard_normal((32, 32)), 2.0)
        scene = RadianceMap(data=5.0 * np.clip(texture, 0.1, None))
        gt = gamma_correct(scene.data / config.well_capacity, 1.0 / 3.2)
        gm_hi = GainMap("per_roi", np.array([[27.0]]), roi_size=32)
        bm_hi = BinMap(roi_size=32, factors=np.array([[16]]), mode="digital")
        gm_lo = GainMap("per_roi", np.array([[1.0]]), roi_size=32)
        bm_lo = BinMap(roi_size=32, factors=np.array([[1]]), mode="digital")
        wins = 0
        for seed in range(65, 75):
            _, est_hi = capture_spatially_varying(scene, gm_hi, bm_hi, config,
                                                  seed=seed)
            _, est_lo = capture_spatially_varying(scene, gm_lo, bm_lo, config,
                                                  seed=seed)
            _, s_hi = ssim(gt, gamma_correct(
                est_hi.data / config.well_capacity, 1.0 / 3.2))
            _, s_lo = ssim(gt, gamma_correct(
                est_lo.data / config.well_capacity, 1.0 / 3.2))
            wins += s_hi > s_lo
        assert wins == 10

    def test_grid_mismatch_rejected(self, config):
        scene = RadianceMap(data=np.zeros((64, 64)))
        gm = GainMap("per_roi", np.ones((2, 2)), roi_size=32)
        bm = BinMap(roi_size=16, factors=np.ones((4, 4), dtype=int),
                    mode="digital")
        with pytest.raises(ShapeError):
            capture_spatially_varying(scene, gm, bm, config, seed=0)

    def test_metadata_and_native_blocks(self, config):
        scene = RadianceMap(data=np.full((64, 64), 50.0))
        gm = GainMap("per_roi", np.full((2, 2), 2.0), roi_size=32)
        bm = BinMap(roi_size=32, factors=np.array([[1, 4], [16, 64]]),
                    mode="digital")
        raw, est = capture_spatially_varying(scene, gm, bm, config, seed=65)
        assert raw.plan.bins.tolist() == [[1, 4], [16, 64]]
        # each ROI's estimate is constant over each of its superpixels, so
        # sampling it [::k, ::k] gives its native view, one value per
        # superpixel
        shapes = {}
        for (i, j), sl in roi_slices(64, 64, 32):
            k = math.isqrt(int(raw.plan.bins[i, j]))
            blk = est.data[sl]
            native = blk[::k, ::k]
            assert np.array_equal(blk, np.repeat(np.repeat(native, k, 0),
                                                 k, 1))
            shapes[i, j] = native.shape
        assert shapes == {(0, 0): (32, 32), (0, 1): (16, 16),
                          (1, 0): (8, 8), (1, 1): (4, 4)}


class TestCompose:
    def make_stack(self, scene, gains, config, seed0):
        frames = tuple(simulate_capture(scene, g, None, config, seed=seed0 + i)
                       for i, g in enumerate(gains))
        return GainStack(gains=tuple(gains), frames=frames)

    def test_single_gain_identity(self, config, make_uniform):
        scene = make_uniform(100.0)
        stack = self.make_stack(scene, [2.0], config, 70)
        gm = GainMap("per_roi", np.full((2, 2), 2.0), roi_size=32)
        composed, provenance = compose_from_gain_stack(stack, gm)
        assert np.array_equal(composed.digits, stack.frames[0].digits)
        assert provenance.tolist() == [[0, 0], [0, 0]]

    def test_checkerboard_provenance(self, config, make_uniform):
        scene = make_uniform(100.0)
        stack = self.make_stack(scene, [1.0, 4.0], config, 71)
        plan = GainMap("per_roi", np.array([[1.0, 4.0], [4.0, 1.0]]),
                       roi_size=32)
        composed, provenance = compose_from_gain_stack(stack, plan)
        assert provenance.tolist() == [[0, 1], [1, 0]]
        assert np.array_equal(composed.digits[:32, :32],
                              stack.frames[0].digits[:32, :32])
        assert np.array_equal(composed.digits[:32, 32:],
                              stack.frames[1].digits[:32, 32:])

    def test_frames_keep_no_per_pixel_plan(self, config, make_uniform):
        # compose reads each frame's plan grids: no frame is left holding a
        # full-frame gain or bin-factor array
        stack = self.make_stack(make_uniform(100.0), [1.0, 2.0, 4.0], config,
                                73)
        plan = GainMap("per_roi", np.array([[1.0, 2.0], [4.0, 1.0]]),
                       roi_size=32)
        compose_from_gain_stack(stack, plan)
        for frame in stack.frames:
            assert not {"gain", "bin_factor"} & set(vars(frame))

    def test_missing_gain_level_rejected(self, config, make_uniform):
        scene = make_uniform(100.0)
        stack = self.make_stack(scene, [1.0, 4.0], config, 72)
        plan = GainMap("per_roi", np.array([[2.0]]), roi_size=64)
        with pytest.raises(DataError):
            compose_from_gain_stack(stack, plan)
        snapped = quantize_to_ladder(plan, stack.gains)
        composed, _ = compose_from_gain_stack(stack, snapped)
        assert np.all(composed.gain == 1.0)

    def test_statistics_match_direct_capture(self, config):
        # same per-ROI variance whether composed from a stack or captured
        # directly with the plan
        levels = np.zeros((64, 64))
        levels[:32, :32], levels[:32, 32:] = 5.0, 60.0
        levels[32:, :32], levels[32:, 32:] = 200.0, 700.0
        scene = RadianceMap(data=levels)
        plan = GainMap("per_roi", np.array([[16.0, 8.0], [4.0, 1.0]]),
                       roi_size=32)
        composed_vals = {k: [] for k in range(4)}
        direct_vals = {k: [] for k in range(4)}
        for rep in range(40):
            stack = self.make_stack(scene, [1.0, 4.0, 8.0, 16.0], config,
                                    1000 + rep * 10)
            composed, _ = compose_from_gain_stack(stack, plan)
            direct = simulate_capture(scene, plan, None, config,
                                      seed=5000 + rep)
            est_c = estimate_photons(composed, config).data
            est_d = estimate_photons(direct, config).data
            for k, sl in enumerate([(slice(0, 32), slice(0, 32)),
                                    (slice(0, 32), slice(32, 64)),
                                    (slice(32, 64), slice(0, 32)),
                                    (slice(32, 64), slice(32, 64))]):
                composed_vals[k].append(est_c[sl].ravel())
                direct_vals[k].append(est_d[sl].ravel())
        for k in range(4):
            vc = np.concatenate(composed_vals[k]).var(ddof=1)
            vd = np.concatenate(direct_vals[k]).var(ddof=1)
            n = 32 * 32 * 40
            se = math.sqrt(2.0 / (n - 1)) * max(vc, vd)
            assert abs(vc - vd) < 3 * math.sqrt(2) * se, k

    @given(gains=st.lists(st.sampled_from([1.0, 2.0, 4.0, 8.0]), min_size=12,
                          max_size=12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_seed_stack_composes_to_direct_capture(self, gains, seed):
        # frames that all use seed s hold one realization, so copying ROIs
        # out of them is the direct capture of the plan at seed s
        config = SensorConfig()
        scene = RadianceMap(data=np.random.default_rng(seed).uniform(
            0, 900, (100, 70)))
        plan = GainMap("per_roi", np.reshape(gains, (4, 3)), roi_size=32)
        ladder = (1.0, 2.0, 4.0, 8.0)
        stack = GainStack(gains=ladder, frames=tuple(
            simulate_capture(scene, g, None, config, seed=seed)
            for g in ladder))
        composed, _ = compose_from_gain_stack(stack, plan)
        direct = simulate_capture(scene, plan, None, config, seed=seed)
        assert composed.digits.tobytes() == direct.digits.tobytes()
        assert np.array_equal(composed.saturation_mask,
                              direct.saturation_mask)
        assert np.array_equal(composed.gain, direct.gain)

    @given(shape=st.sampled_from([(100, 70, 32), (97, 131, 10),
                                  (97, 131, 20), (64, 64, 16), (30, 50, 64)]),
           n_frames=st.integers(3, 5), fine=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(100, 70, 32), n_frames=3, fine=True, seed=3)
    def test_matches_per_roi_loop(self, shape, n_frames, fine, seed):
        # byte for byte on ragged frames; frames binned on a grid twice as
        # fine as the plan's bin some ROIs unevenly, and the error names
        # the first of those in row-major order
        h, w, roi = shape
        config = SensorConfig()
        rng = np.random.default_rng(seed)
        scene = RadianceMap(data=rng.uniform(0, 900, (h, w)))
        ladder = (1.0, 2.0, 4.0, 8.0, 16.0)[:n_frames]
        bin_roi = roi // 2 if fine else roi
        ks = [k for k in (1, 2, 4) if bin_roi % k == 0]
        grid, frames = RoiGrid(h, w, bin_roi), []
        for i, g in enumerate(ladder):
            # mostly unbinned on the fine grid, so few ROIs come out uneven
            k = np.where(rng.random(grid.shape) < (0.1 if fine else 0.5),
                         rng.choice(ks, grid.shape), 1)
            frames.append(simulate_capture(scene, g, BinMap(
                bin_roi, k * k, "digital"), config, seed=seed + i))
        stack = GainStack(gains=ladder, frames=tuple(frames))
        gains = rng.choice(ladder, RoiGrid(h, w, roi).shape)
        plan = GainMap("per_roi", gains, roi_size=roi)
        try:
            digits, sat, bins, provenance = compose_by_roi_loop(
                stack, gains, roi)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                compose_from_gain_stack(stack, plan)
            assert str(got.value) == str(exc)
            return
        composed, got_provenance = compose_from_gain_stack(stack, plan)
        assert composed.digits.tobytes() == digits.tobytes()
        assert composed.saturation_mask.tobytes() == sat.tobytes()
        assert composed.plan.bins.dtype == bins.dtype
        assert composed.plan.bins.tobytes() == bins.tobytes()
        assert got_provenance.dtype == provenance.dtype
        assert got_provenance.tobytes() == provenance.tobytes()
        assert np.array_equal(composed.plan.gains, gains)

    def test_superpixels_cut_by_the_composite_rois_rejected(
            self, config, make_uniform):
        # frames binned at k = 4 on 16-pixel ROIs, composed on 10-pixel
        # ROIs that 4 does not divide: some ROIs are binned alike but cut
        # superpixels, so the composite has no plan
        scene = make_uniform(100.0)
        frames = tuple(simulate_capture(
            scene, g, BinMap(16, np.full((4, 4), 16), "digital"), config,
            seed=82) for g in (1.0, 2.0))
        stack = GainStack(gains=(1.0, 2.0), frames=frames)
        with pytest.raises(DataError, match="divide"):
            compose_from_gain_stack(stack, GainMap(
                "per_roi", np.ones((7, 7)), roi_size=10))
        composed, _ = compose_from_gain_stack(stack, GainMap(
            "per_roi", np.ones((2, 2)), roi_size=32))
        assert composed.plan.bins.tolist() == [[16, 16], [16, 16]]

    def test_stack_validation(self, config, make_uniform):
        scene = make_uniform(10.0)
        f = simulate_capture(scene, 1.0, None, config, seed=80)
        with pytest.raises(DataError):
            GainStack(gains=(2.0, 1.0), frames=(f, f))
        binned = simulate_capture(scene, 4.0, BinMap(64, [[4]], "additive"),
                                  config, seed=80)
        with pytest.raises(DataError, match="mode"):
            GainStack(gains=(1.0, 4.0), frames=(f, binned))

    def test_bin_factors_come_from_the_frames(self, config, make_uniform):
        # each ROI of the composite takes its bin factor from its frame's
        # plan, which must bin that whole ROI alike
        scene = make_uniform(100.0)
        plan = GainMap("per_roi", np.array([[1.0, 4.0], [4.0, 1.0]]),
                       roi_size=32)
        unit = simulate_capture(scene, 1.0, None, config, seed=81)
        even = simulate_capture(scene, 4.0, BinMap(16, np.full((4, 4), 4),
                                                   "digital"), config, seed=81)
        composed, _ = compose_from_gain_stack(
            GainStack(gains=(1.0, 4.0), frames=(unit, even)), plan)
        assert composed.plan.bins.tolist() == [[1, 4], [4, 1]]
        assert composed.plan.mode == "digital"
        uneven = simulate_capture(
            scene, 4.0, BinMap(16, np.tile([[1, 4], [4, 1]], (2, 2)),
                               "digital"), config, seed=81)
        assert composed.plan.roi_size == 32 and uneven.plan.roi_size == 16
        stack = GainStack(gains=(1.0, 4.0), frames=(unit, uneven))
        on_own_grid, _ = compose_from_gain_stack(stack, GainMap(
            "per_roi", np.full((4, 4), 4.0), roi_size=16))
        assert np.array_equal(on_own_grid.plan.bins, uneven.plan.bins)
        with pytest.raises(DataError, match="unevenly"):
            compose_from_gain_stack(stack, GainMap("per_roi", np.full(
                (2, 2), 4.0), roi_size=32))


class TestBinPlanner:
    @given(levels=st.lists(st.floats(0.0, 3000.0), min_size=2, max_size=8))
    def test_factor_nonincreasing_in_roi_level(self, levels):
        config = SensorConfig()
        data = np.kron(np.asarray(levels)[None, :], np.ones((8, 8)))
        snapshot = PhotonEstimate(data=data,
                                  validity_mask=np.ones(data.shape, bool))
        bm = plan_bin_roi(snapshot, 8, "digital", config, 4.0, 1.0)
        order = np.argsort(levels, kind="stable")
        assert np.all(np.diff(bm.factors[0][order]) <= 0)

    def test_dark_and_saturated_rois_bin_maximally(self, config):
        data = np.zeros((8, 24))
        data[:, 16:] = 5000.0
        valid = np.ones(data.shape, bool)
        valid[:, 8:16] = False
        snapshot = PhotonEstimate(data=data, validity_mask=valid)
        bm = plan_bin_roi(snapshot, 8, "additive", config, 4.0, 1.0)
        assert bm.factors.tolist() == [[64, 64, 1]]
        assert bm.mode == "additive"


    def test_non_finite_gain_rejected_on_a_dark_pilot(self, config):
        # no ROI needs a pitch, but the gain is still checked
        snapshot = PhotonEstimate(data=np.zeros((16, 16)),
                                  validity_mask=np.ones((16, 16), bool))
        for gain in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                plan_bin_roi(snapshot, 8, "digital", config, 4.0, gain)


class TestBinMapType:
    @given(mode=st.sampled_from(BIN_MODES), roi_size=st.sampled_from([8, 16, 64]),
           rows=st.integers(1, 6), cols=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_json_roundtrip(self, mode, roi_size, rows, cols, seed):
        ks = np.random.default_rng(seed).choice([1, 2, 4, 8], (rows, cols))
        bm = BinMap(roi_size=roi_size, factors=ks * ks, mode=mode)
        again = BinMap.from_json_dict(json.loads(json.dumps(
            bm.to_json_dict())))
        assert again.mode == bm.mode
        assert again.roi_size == bm.roi_size
        assert again.factors.dtype == bm.factors.dtype
        assert np.array_equal(again.factors, bm.factors)

    @pytest.mark.parametrize("key, value", [
        ("values", [2.5, 1.9]), ("values", [2, float("nan")]),
        ("roi_size", "32"), ("roi_size", 32.0), ("values", [-2, 1])])
    def test_malformed_plan_rejected(self, key, value):
        doc = BinMap(roi_size=32, factors=np.ones((1, 2), dtype=int),
                     mode="digital").to_json_dict()
        with pytest.raises(DataError):
            BinMap.from_json_dict(dict(doc, **{key: value}))

    def test_integral_float_factors_accepted(self):
        doc = {"roi_size": 32, "mode": "digital", "shape": [1, 2],
               "values": [2.0, 8.0]}
        assert BinMap.from_json_dict(doc).factors.tolist() == [[4, 64]]

    def test_rejects_non_square_factor(self):
        with pytest.raises(ConfigError):
            BinMap(roi_size=32, factors=np.array([[3]]), mode="additive")

    def test_rejects_indivisible_roi(self):
        with pytest.raises(ConfigError):
            BinMap(roi_size=12, factors=np.array([[64]]), mode="additive")
