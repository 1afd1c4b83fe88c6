"""Quality metrics and the four-method evaluation protocol."""

import collections
import hashlib
import itertools
import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svsensor import metrics
from svsensor import (ConfigError, NumericalError, Plan, RadianceMap,
                      RoiGrid, SceneSpec, SensorConfig, ShapeError,
                      estimate_photons, evaluate_protocol, gamma_correct,
                      load_and_normalize, psnr, ssim)
from svsensor.metrics import METHODS
from svsensor.readout import read_plan
from svsensor.sensor import BIN_MODES, draw_noise, roi_ladder

from conftest import roi_slices


def ssim_reference(ref, test):
    """Oracle: sliding-window SSIM with an explicit 11x11 Gaussian kernel,
    evaluated on interior pixels only."""
    radius, sigma = 5, 1.5
    ax = np.arange(-radius, radius + 1)
    k1 = np.exp(-ax ** 2 / (2 * sigma ** 2))
    kernel = np.outer(k1, k1)
    kernel /= kernel.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = ref.shape
    out = []
    for i in range(radius, h - radius):
        for j in range(radius, w - radius):
            wa = ref[i - radius:i + radius + 1, j - radius:j + radius + 1]
            wb = test[i - radius:i + radius + 1, j - radius:j + radius + 1]
            mu_a = (kernel * wa).sum()
            mu_b = (kernel * wb).sum()
            va = (kernel * wa * wa).sum() - mu_a ** 2
            vb = (kernel * wb * wb).sum() - mu_b ** 2
            cov = (kernel * wa * wb).sum() - mu_a * mu_b
            out.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                       / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(out))


class TestGamma:
    def test_identity(self):
        x = np.linspace(0, 1, 11)
        assert np.allclose(gamma_correct(x, 1.0), x)

    def test_display_table_value(self):
        assert gamma_correct(np.array([0.25, 1.0]), 0.5).tolist() == \
            pytest.approx([0.5, 1.0])

    def test_zero_maps_to_zero(self):
        assert gamma_correct(np.array([0.0]), 1 / 3.2)[0] == 0.0

    def test_clips_to_unit_range(self):
        assert gamma_correct(np.array([4.0]), 0.5)[0] == 1.0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigError):
            gamma_correct(np.zeros(3), -1.0)
        with pytest.raises(ConfigError):
            gamma_correct(np.zeros(3), 0.0)

    def test_negative_input_clipped(self):
        assert gamma_correct(np.array([-0.5]), 0.5)[0] == 0.0


class TestSsim:
    def test_identical_images(self):
        rng = np.random.default_rng(110)
        img = rng.uniform(0, 1, (32, 32))
        smap, scalar = ssim(img, img)
        assert scalar == pytest.approx(1.0)
        assert np.allclose(smap, 1.0)

    def test_offset_penalized(self):
        rng = np.random.default_rng(111)
        img = rng.uniform(0, 0.5, (32, 32))
        _, scalar = ssim(img, np.clip(img + 0.5, 0, 1))
        assert scalar < 0.95

    def test_matches_windowed_reference(self):
        rng = np.random.default_rng(112)
        for trial in range(5):
            ref = rng.uniform(0, 1, (24, 24))
            test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
            _, fast = ssim(ref, test)
            slow = ssim_reference(ref, test)
            assert fast == pytest.approx(slow, abs=1e-4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_stack_scores_each_block_alone(self):
        rng = np.random.default_rng(113)
        ref = rng.uniform(0, 1, (3, 12, 20))
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        smaps, scores = ssim(ref, test)
        for n in range(3):
            smap, score = ssim(ref[n], test[n])
            assert np.array_equal(smaps[n], smap)
            assert scores[n] == score


def ssim_full_map(ref, test):
    """Oracle: the SSIM map over every pixel of each (n, h, w) block, from
    Gaussian statistics blurred over the whole block, cropped to the
    interior (the window margins cropped when the smaller side exceeds
    twice the window radius), and its mean."""
    from scipy.ndimage import gaussian_filter

    def blur(x):
        return gaussian_filter(x, (0.0, 1.5, 1.5), truncate=10.0 / 3.0,
                               mode="reflect")

    mu_a, mu_b = blur(ref), blur(test)
    var_a = blur(ref * ref) - mu_a * mu_a
    var_b = blur(test * test) - mu_b * mu_b
    cov = blur(ref * test) - mu_a * mu_b
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    smap = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
           ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    inner = smap[:, 5:-5, 5:-5] if min(smap.shape[1:]) > 10 else smap
    return inner, inner.mean(axis=(1, 2))


class TestSsimAgainstFullMap:
    @given(n=st.integers(1, 4), h=st.integers(1, 40), w=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, h=10, w=10, seed=0)
    @example(n=1, h=11, w=11, seed=1)
    @example(n=3, h=12, w=40, seed=2)
    @example(n=1, h=32, w=32, seed=3)
    @example(n=2, h=9, w=33, seed=4)
    def test_equals_full_map_reference(self, n, h, w, seed):
        # to 1e-12, for blocks above, at and below the crop threshold: the
        # map ssim returns is the one it averages; BLAS sums the window's
        # products in its own order, so the bits are not scipy's; as a
        # stack and as single images, bit for bit alike
        rng = np.random.default_rng(seed)
        ref = rng.uniform(0, 1, (n, h, w))
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        inner, means = ssim_full_map(ref, test)
        smaps, got = ssim(ref, test)
        assert smaps.shape == inner.shape
        assert np.max(np.abs(smaps - inner)) <= 1e-12
        assert np.max(np.abs(got - means)) <= 1e-12
        assert np.array_equal(got, smaps.mean(axis=(1, 2)))
        for i in range(n):
            smap, mean = ssim(ref[i], test[i])
            assert np.array_equal(smap, smaps[i])
            assert mean == got[i]


class TestSsimLayout:
    @given(h=st.integers(1, 70), w=st.integers(1, 70), at=st.integers(0, 63),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(h=10, w=10, at=0, seed=0)
    @example(h=11, w=11, at=1, seed=1)
    @example(h=11, w=40, at=63, seed=2)
    @example(h=12, w=12, at=2, seed=3)
    @example(h=32, w=32, at=63, seed=4)
    def test_block_scores_alike_in_every_layout(self, h, w, at, seed):
        # a block's map and mean are the same bits scored alone as a
        # contiguous copy, as a strided view (every other pixel, or a row
        # slice of a wider frame), and at any place in stacks of 1, 3
        # and 64 blocks
        rng = np.random.default_rng(seed)
        ref = rng.uniform(0, 1, (2 * h, 2 * w + 3))
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        for view in ((slice(None, None, 2), slice(None, 2 * w, 2)),
                     (slice(0, h), slice(3, 3 + w))):
            a, b = ref[view], test[view]
            smap, mean = ssim(a.copy(), b.copy())
            got_map, got = ssim(a, b)
            assert np.array_equal(got_map, smap) and got == mean
            for n in (1, 3, 64):
                stack_a = rng.uniform(0, 1, (n, h, w))
                stack_b = np.clip(stack_a + rng.normal(0, 0.1, stack_a.shape),
                                  0, 1)
                stack_a[at % n], stack_b[at % n] = a, b
                maps, means = ssim(stack_a, stack_b)
                assert np.array_equal(maps[at % n], smap)
                assert means[at % n] == mean


class TestBlurAgainstScipy:
    @pytest.mark.parametrize("h", range(1, 41))
    @settings(max_examples=4)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1.0, 1e-3, 1e3]))
    def test_equals_gaussian_filter1d_then_crop(self, h, seed, scale):
        # within 1e-13 of the input scale, for every block shape up to
        # 40 x 40 as one block and as a stack of three: scipy is the
        # oracle, not a dependency, and BLAS's order of sums not its own
        from scipy.ndimage import gaussian_filter1d
        x = np.random.default_rng(seed).uniform(0, scale, (3, h, 40))
        for w in range(1, 41):
            for n in (1, 3):
                block = x[:n, :, :w].copy()
                crop = metrics._crop(block.shape)
                want = block
                for axis in (1, 2):
                    want = gaussian_filter1d(want, 1.5, axis, mode="reflect",
                                             truncate=10.0 / 3.0)
                want = want[:, crop:h - crop, crop:w - crop]
                got = metrics._blur(block, crop)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _block_means(image, k):
    h, w = image.shape[0] // k * k, image.shape[1] // k * k
    return image[:h, :w].reshape(h // k, k, w // k, k).mean(axis=(1, 3))


class TestChunkLoop:
    """``metrics._score_plans``, evaluate's one loop over ROI chunks."""

    @given(h=st.integers(1, 70), w=st.integers(1, 70),
           roi=st.sampled_from([8, 16, 24, 32]),
           chunk=st.sampled_from([1, 300, 1 << 18]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(h=70, w=70, roi=16, chunk=1, seed=0)
    @example(h=64, w=41, roi=32, chunk=300, seed=1)
    def test_scores_equal_per_roi_ssim(self, h, w, roi, chunk, seed):
        # bit for bit, on clipped edge ROIs, under plans of every mode, on
        # ROIs that two plans read alike, and with chunks from one block to
        # the whole frame, shared with a helper thread; at one block per
        # chunk both threads take blocks, and a short switch interval makes
        # them interleave often
        config = SensorConfig()
        rng = np.random.default_rng(seed)
        scene = RadianceMap(data=rng.uniform(0, 300, (h, w)))
        noise = draw_noise(scene, config, seed)
        grid = RoiGrid(h, w, roi)
        plans = {}
        for mode in BIN_MODES:
            bins = rng.choice(roi_ladder(roi), grid.shape) ** 2
            gains = rng.uniform(1.0, 4.0, grid.shape)
            plans[mode] = Plan(roi, gains * bins if mode == "additive"
                               else gains, bins, mode)
        # plans that read some ROIs as the digital plan does: all of them
        # in digital mode, and those at N = 1 in average mode
        for mode in ("digital", "average"):
            alike = rng.random(grid.shape) < 0.5
            plans[f"{mode}_alike"] = Plan(
                roi, np.where(alike, plans["digital"].gains,
                              rng.uniform(1.0, 4.0, grid.shape)),
                np.where(alike, plans["digital"].bins,
                         rng.choice(roi_ladder(roi), grid.shape) ** 2), mode)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with (ThreadPoolExecutor(1) as helper,
                  mock.patch.object(metrics, "_SSIM_CHUNK_PIXELS", chunk)):
                scores = metrics._score_plans(scene, noise, grid, plans,
                                              config, helper)
        finally:
            sys.setswitchinterval(interval)

        def render(photons):
            return gamma_correct(photons / config.well_capacity, 1 / 3.2)

        truth = render(scene.data)
        for name, plan in plans.items():
            img = render(estimate_photons(read_plan(noise, plan, config),
                                          config).data)
            ssims, mse, native = scores[name]
            for (i, j), (rs, cs) in roi_slices(h, w, roi):
                a, b = truth[rs, cs], img[rs, cs]
                assert ssims[i, j] == ssim(a, b)[1]
                assert mse[i, j] == np.mean((a - b) ** 2)
                k = math.isqrt(int(plan.bins[i, j]))
                if k > 1 and not (b.shape[0] % k or b.shape[1] % k):
                    ref_k = render(_block_means(scene.data, k))
                    assert native[i, j] == ssim(
                        ref_k[rs.start // k:rs.stop // k,
                              cs.start // k:cs.stop // k], b[::k, ::k])[1]
                else:
                    assert native[i, j] == ssims[i, j]

    @pytest.mark.parametrize("roi", [8, 16, 24, 32, 64, 128])
    def test_chunks_split_every_group_for_two_threads(self, roi):
        # each ROI in one chunk; every group of two or more ROIs in two
        # chunks at least, so that the helper thread gets one; a chunk
        # over _SSIM_CHUNK_PIXELS only where one ROI is; wherever there
        # are two chunks or more both threads score some, their counts
        # differing by at most the number of ROI groups
        for h, w in [(roi, roi), (roi - 3, roi + 5), (2 * roi, roi),
                     (128, 128), (256, 256), (300, 257), (512, 200),
                     (512, 512)]:
            grid = RoiGrid(h, w, roi)
            chunks, by = [], collections.Counter()

            def work(*chunk):
                chunks.append(chunk)
                by[threading.current_thread() is threading.main_thread()] += 1

            with ThreadPoolExecutor(1) as helper:
                metrics._share(helper, grid, work)
            if len(chunks) > 1:
                assert by[True] and by[False], (h, w)
            assert abs(by[True] - by[False]) <= len(list(grid.parts()))
            seen = np.zeros(grid.shape, int)
            per_group = collections.Counter()
            for rs, cs, shape, at in chunks:
                np.add.at(seen[rs, cs], at, 1)
                per_group[rs.start, cs.start] += 1
                assert (at[0].size * math.prod(shape)
                        <= metrics._SSIM_CHUNK_PIXELS or at[0].size == 1)
            assert (seen == 1).all(), (h, w)
            for rs, cs, _ in grid.parts():
                rois = (rs.stop - rs.start) * (cs.stop - cs.start)
                assert per_group[rs.start, cs.start] >= min(rois, 2), (h, w)

    def test_error_on_the_caller_comes_first(self, config):
        # both threads raise: the caller's own error reaches the caller,
        # once the helper has finished its share, and no thread is left
        real, helped = metrics.ssim, threading.Event()

        def ssim_failing_on_both(*args):
            if threading.current_thread() is not threading.main_thread():
                helped.set()
                raise NumericalError("helper chunk")
            assert helped.wait(10)
            raise NumericalError("caller chunk")

        scene = RadianceMap(
            data=np.random.default_rng(5).uniform(0, 300, (64, 64)))
        before = threading.active_count()
        with mock.patch.object(metrics, "ssim", ssim_failing_on_both):
            with pytest.raises(NumericalError, match="caller chunk"):
                evaluate_protocol(scene, config, roi_size=16, seed=6)
        assert threading.active_count() == before

    def test_error_on_the_helper_is_raised(self):
        # the helper's chunk fails while this thread holds one, and this
        # thread raises the helper's error
        config = SensorConfig()
        scene = RadianceMap(
            data=np.random.default_rng(3).uniform(0, 300, (64, 64)))
        grid = RoiGrid(64, 64, 16)
        plans = {"unit": Plan(16, np.ones(grid.shape),
                              np.ones(grid.shape, int), "digital")}
        real, helped = metrics.ssim, threading.Event()

        def ssim_failing_on_helper(*args):
            if threading.current_thread() is not threading.main_thread():
                helped.set()
                raise NumericalError("helper chunk")
            assert helped.wait(10)
            return real(*args)

        with (ThreadPoolExecutor(1) as helper,
              mock.patch.object(metrics, "_SSIM_CHUNK_PIXELS", 1),
              mock.patch.object(metrics, "ssim", ssim_failing_on_helper)):
            with pytest.raises(NumericalError, match="helper chunk"):
                metrics._score_plans(scene, draw_noise(scene, config, 4),
                                     grid, plans, config, helper)

    def test_peak_memory_of_evaluate(self, config):
        # nothing frame-sized lives per method: one four-method evaluate of
        # a 512 x 512 scene at ROI 32 peaks at no more than 9 float64
        # frames of traced memory, the pilot and the main draw included
        spec = SceneSpec(source="hdr_blobs", seed=512, width=512, height=512,
                         mean_level_frac=0.05)
        scene = load_and_normalize(spec, config)
        tracemalloc.start()
        try:
            evaluate_protocol(scene, config, roi_size=32, seed=513)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * scene.data.nbytes


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.full((8, 8), 0.25)
        assert psnr(img, img) == math.inf

    def test_known_value(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert psnr(a, b) == pytest.approx(20.0)


class TestProtocol:
    def hdr_scene(self, config, seed=5):
        spec = SceneSpec(source="hdr_blobs", seed=seed, width=96, height=96,
                         mean_level_frac=0.05)
        return load_and_normalize(spec, config)

    def test_noiseless_limit_scores_near_one(self, monkeypatch):
        import svsensor.sensor as sensor_mod
        monkeypatch.setattr(sensor_mod, "draw_photons",
                            lambda rng, m: np.array(m, dtype=np.float64))
        config = SensorConfig(sigma_pre=0.0, sigma_post=0.0)
        scene = self.hdr_scene(config)
        report = evaluate_protocol(scene, config, roi_size=32, seed=9)
        for name in METHODS:
            # binned methods judged at native resolution in this limit; the
            # 12-bit quantizer stays in the loop, so deep shadows at unit
            # gain keep a visible staircase and exact 1.0 is unreachable
            assert report.scores[name].worst_ssim_native > 0.95, name
            assert report.scores[name].mean_ssim > 0.98, name

    def test_ordering_on_hdr_scene(self, config):
        scene = self.hdr_scene(config, seed=11)
        report = evaluate_protocol(scene, config, roi_size=32, seed=12)
        best = report.scores["vary_gain_vary_bin"].worst_ssim
        base = report.scores["const_gain_no_bin"].worst_ssim
        assert best > base

    def test_single_techniques_beat_baseline(self, config):
        for scene_seed in (21, 22):
            scene = self.hdr_scene(config, seed=scene_seed)
            report = evaluate_protocol(scene, config, roi_size=32,
                                       seed=scene_seed)
            base = report.scores["const_gain_no_bin"].worst_ssim
            assert report.scores["vary_gain_no_bin"].worst_ssim >= base
            assert report.scores["const_gain_vary_bin"].worst_ssim >= base

    def test_worst_not_above_mean(self, config):
        scene = self.hdr_scene(config, seed=31)
        report = evaluate_protocol(scene, config, roi_size=32, seed=32)
        for s in report.scores.values():
            assert s.worst_ssim <= s.mean_ssim + 1e-12

    def test_deterministic_reports(self, config):
        scene = self.hdr_scene(config, seed=41)
        a = evaluate_protocol(scene, config, roi_size=32, seed=42)
        b = evaluate_protocol(scene, config, roi_size=32, seed=42)
        assert a.to_json_dict() == b.to_json_dict()

    @pytest.fixture
    def drawn_seeds(self, monkeypatch):
        """The seed of each ``draw_noise`` call any svsensor module makes."""
        import svsensor.sensor as sensor_mod
        real, seeds = sensor_mod.draw_noise, []

        def counting(scene, config, seed, *args, **kwargs):
            seeds.append(seed)
            return real(scene, config, seed, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("svsensor")
                    and getattr(mod, "draw_noise", None) is real):
                monkeypatch.setattr(mod, "draw_noise", counting)
        return seeds

    def test_one_main_draw(self, config, drawn_seeds):
        # the pilot and one main realization, read out under all four plans
        scene = self.hdr_scene(config, seed=71)
        report = evaluate_protocol(scene, config, roi_size=32, seed=72)
        assert set(report.scores) == set(METHODS)
        assert len(drawn_seeds) == 2 and drawn_seeds[0] != drawn_seeds[1]

    @pytest.mark.parametrize("bad", [dict(eta=-1.0), dict(snr_t=0.0),
                                     dict(roi_size=4)])
    def test_bad_arguments_rejected_before_any_draw(self, config, drawn_seeds,
                                                    bad):
        scene = self.hdr_scene(config, seed=73)
        with pytest.raises(ConfigError):
            evaluate_protocol(scene, config, **{"roi_size": 32, **bad})
        assert drawn_seeds == []

    @pytest.mark.parametrize("fault",
                             [None, "ssim", "main_draw", "block_means"])
    def test_errors_raised_and_helper_gone(self, config, monkeypatch, fault):
        # an error in an SSIM chunk, in the main draw or in the block means
        # the helper takes after it, on whichever thread it runs, reaches
        # the caller; returned or raised, the call leaves no thread behind
        real, calls = metrics.ssim, itertools.count(1)

        def ssim_failing_once(*args):
            if next(calls) == 3:  # one call, whichever thread makes it
                raise NumericalError("injected")
            return real(*args)

        def failing_draw(*args):
            raise NumericalError("injected")

        if fault == "ssim":
            monkeypatch.setattr(metrics, "ssim", ssim_failing_once)
        elif fault == "main_draw":  # the pilot draws through sensor's name
            monkeypatch.setattr(metrics, "draw_noise", failing_draw)
        elif fault == "block_means":
            monkeypatch.setattr(metrics, "_block_means", failing_draw)
        scene = self.hdr_scene(config, seed=75)
        before = threading.active_count()
        if fault is None:
            evaluate_protocol(scene, config, roi_size=16, seed=76)
        else:
            with pytest.raises(NumericalError, match="injected"):
                evaluate_protocol(scene, config, roi_size=16, seed=76)
        assert threading.active_count() == before

    def _pinned_scene(self, config, size):
        spec = SceneSpec(source="hdr_blobs", seed=size, width=size,
                         height=size, mean_level_frac=0.05)
        return load_and_normalize(spec, config)

    @pytest.mark.parametrize("size", [512, 300])
    def test_each_method_alone_scores_as_with_the_others(self, config, size):
        # a method evaluated alone reads out every one of its ROIs, so the
        # ROIs it shares with another method in the four-method report
        # must score the same there, bit for bit
        scene = self._pinned_scene(config, size)
        together = evaluate_protocol(scene, config, roi_size=32,
                                     seed=size + 1).to_json_dict()["methods"]
        for name in METHODS:
            alone = evaluate_protocol(scene, config, roi_size=32,
                                      methods=(name,), seed=size + 1)
            assert alone.to_json_dict()["methods"] == {name: together[name]}

    @pytest.mark.parametrize("size, distinct", [(512, 936), (300, 317)])
    def test_each_distinct_readout_is_read_once(self, config, monkeypatch,
                                                size, distinct):
        # an ROI is read out once per distinct (gain, bin factor N, mode if
        # N > 1) among the four plans; of 4 x 256 (512) and 4 x 100 (300)
        # ROI readouts, the named counts are read
        real_read, real_score = metrics.read_blocks, metrics._score_plans
        read, seen = collections.Counter(), []

        def counting_read(noise, plan, config, grid, rs, cs, shape, at):
            read[id(plan)] += at[0].size
            return real_read(noise, plan, config, grid, rs, cs, shape, at)

        def keeping_plans(scene, noise, grid, plans, *args):
            seen.append(plans)
            return real_score(scene, noise, grid, plans, *args)

        monkeypatch.setattr(metrics, "read_blocks", counting_read)
        monkeypatch.setattr(metrics, "_score_plans", keeping_plans)
        evaluate_protocol(self._pinned_scene(config, size), config,
                          roi_size=32, seed=size + 1)
        (plans,) = seen
        keys = [{(float(p.gains[ij]), int(p.bins[ij]),
                  p.mode if p.bins[ij] > 1 else None)
                 for p in plans.values()}
                for ij in np.ndindex(next(iter(plans.values())).gains.shape)]
        assert sum(read.values()) == sum(map(len, keys)) == distinct
        # the first plan reads all its ROIs
        assert read[id(plans[METHODS[0]])] == len(keys)

    @pytest.mark.parametrize("size, roi, digest", [
        (512, 32, "23adfacc55ed9e8a29106197ec279c8d6212f5a48bb2d590def6ab21553e38e6"),
        (300, 32, "4ec217c72f64d9a8a0bff9f208e946ce15b0a4e98c38e8ab67dc3ca49cf695e7"),
        (257, 16, "43b06fe214ca53647efa6f882815bc1c361b1c0a4ded8ea3d0ad29ba8183d669"),
    ], ids=["512-32", "300-32", "257-16"])
    def test_reports_pinned(self, config, size, roi, digest):
        # whole reports, clipped edge ROIs included, fixed so that a rewrite
        # of the capture or the scoring cannot change a single bit of them;
        # the SSIM window's sums are BLAS's, so the digests are this BLAS
        # build's
        spec = SceneSpec(source="hdr_blobs", seed=size, width=size,
                         height=size, mean_level_frac=0.05)
        scene = load_and_normalize(spec, config)
        report = evaluate_protocol(scene, config, roi_size=roi, seed=size + 1)
        text = json.dumps(report.to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("size, digests", [
        (512, {"ground_truth": "7d94cf52de1629d8830f5397afa234aca465f78efa90184b6512ee2fd87032a6",
               "const_gain_no_bin": "28e0b01005d6614793bf1348be9e0fd5c35af7c969bf4eb255d4a04403c7cc9d",
               "vary_gain_no_bin": "ed2177af701195cd3784ab7d2a08c17af0cbbf4a3c968cf6ba469faeab0950b9",
               "const_gain_vary_bin": "5fc18a89c6dcd05c65a75944002c33d69b678ce91f449d7041e9df25691b47e2",
               "vary_gain_vary_bin": "57cf2151bb15306a24439d51ee8394d78f7f7b3f454de45f8d9b889d69bd1438"}),
        (300, {"ground_truth": "18c775052aaaa487237cd53dc317296a96067f8a602eeef125a271c02e18f6a4",
               "const_gain_no_bin": "623f4fb64fb73eb6c4a8fb7251965ecc666e1a9ccd0dd8486d46052c1932071c",
               "vary_gain_no_bin": "2f6950e95a5c5308b65fa1f7b1839a80f303eecd66531f3b8e93f99915cffe1f",
               "const_gain_vary_bin": "630c9d0596671b5b7b3c66fc598e74bfadfed94b01be17a9d6487e9606ace5aa",
               "vary_gain_vary_bin": "060aa764acd3f1cc603f8023cee9f4a79cb3b67989b17b5a0a059b747623ce14"}),
    ], ids=["512-32", "300-32"])
    def test_dumps_pinned(self, config, tmp_path, size, digests):
        # every --dump-dir rendering, clipped edge ROIs included, fixed bit
        # for bit
        evaluate_protocol(self._pinned_scene(config, size), config,
                          roi_size=32, seed=size + 1, dump_dir=tmp_path)
        assert {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.glob("*.pgm")} == digests

    def test_unknown_method_rejected(self, config):
        scene = self.hdr_scene(config, seed=51)
        with pytest.raises(ConfigError):
            evaluate_protocol(scene, config, roi_size=32,
                              methods=("upscale_only",), seed=0)

    def test_csv_rows_well_formed(self, config):
        scene = self.hdr_scene(config, seed=61)
        report = evaluate_protocol(scene, config, roi_size=32, seed=62)
        rows = report.csv_rows()
        assert rows[0].startswith("method,")
        assert len(rows) == 1 + len(METHODS)
