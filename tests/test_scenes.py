"""Scene ingest: PFM round trips, photon normalization, analytic sinusoids
and their pixelation."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from svsensor import (ConfigError, DataError, RadianceMap, SceneSpec,
                      boxed_sinusoid, contrast, load_and_normalize)
from svsensor import scenes
from svsensor.fileio import read_pfm, write_pfm


def sinusoid_by_quadrature(freq, density, pitch, width, samples=4001):
    """Oracle: integrate the raw sinusoid over each pixel footprint."""
    row = np.empty(width)
    for j in range(width):
        u = np.linspace(j * pitch, (j + 1) * pitch, samples)
        vals = 0.5 * density * (np.cos(2 * math.pi * freq * u) + 1.0)
        row[j] = np.trapezoid(vals, dx=u[1] - u[0]) * pitch
    return row


class TestPfm:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(100)
        img = rng.uniform(0, 1e4, (37, 53)).astype(np.float32)
        path = tmp_path / "scene.pfm"
        write_pfm(path, img)
        back = read_pfm(path)
        assert back.shape == (37, 53)
        assert np.array_equal(back.astype(np.float32), img)

    def test_rejects_color_pfm(self, tmp_path):
        path = tmp_path / "color.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(DataError):
            read_pfm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(DataError):
            read_pfm(path)


class TestNormalization:
    def test_uniform_file_hits_protocol_level(self, tmp_path, config):
        path = tmp_path / "flat.pfm"
        write_pfm(path, np.full((16, 16), 7.5, dtype=np.float32))
        spec = SceneSpec(source="pfm", path=str(path), mean_level_frac=0.05)
        scene = load_and_normalize(spec, config)
        assert np.allclose(scene.data, 50.0)

    def test_mean_is_exact(self, tmp_path, config):
        rng = np.random.default_rng(101)
        path = tmp_path / "rand.pfm"
        write_pfm(path, rng.uniform(0, 9, (32, 32)).astype(np.float32))
        spec = SceneSpec(source="pfm", path=str(path), mean_level_frac=0.05)
        scene = load_and_normalize(spec, config)
        assert scene.data.mean() == pytest.approx(50.0, rel=1e-12)

    def test_idempotent(self, config):
        spec = SceneSpec(source="texture", seed=3, mean_level_frac=0.05,
                         width=32, height=32)
        once = load_and_normalize(spec, config)
        again = RadianceMap(
            data=once.data * (0.05 * config.well_capacity / once.data.mean()))
        assert np.allclose(once.data, again.data)

    def test_all_zero_rejected(self, tmp_path, config):
        path = tmp_path / "zero.pfm"
        write_pfm(path, np.zeros((8, 8), dtype=np.float32))
        spec = SceneSpec(source="pfm", path=str(path), mean_level_frac=0.05)
        with pytest.raises(DataError):
            load_and_normalize(spec, config)

    def test_nan_rejected(self, tmp_path, config):
        path = tmp_path / "nan.pfm"
        img = np.ones((8, 8), dtype=np.float32)
        img[3, 3] = np.nan
        write_pfm(path, img)
        spec = SceneSpec(source="pfm", path=str(path), mean_level_frac=0.05)
        with pytest.raises(DataError):
            load_and_normalize(spec, config)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SceneSpec(source="texture", mean_level_frac=1.5)

    @pytest.mark.parametrize("source", ["texture", "hdr_blobs"])
    @pytest.mark.parametrize("field, value", [
        ("width", -1), ("width", 0), ("width", 2.5), ("width", True),
        ("height", -1), ("height", 0), ("height", 2.5), ("height", True),
        ("seed", -3), ("seed", 1.5), ("seed", True), ("seed", None)])
    def test_bad_size_or_seed_rejected(self, config, source, field, value):
        # a size must be a positive integer and a seed a nonnegative one,
        # bools excluded, as plan fields are checked
        with pytest.raises(ConfigError):
            spec = SceneSpec(source=source, mean_level_frac=0.05,
                             **{field: value})
            load_and_normalize(spec, config)


class TestSynthetic:
    @pytest.mark.parametrize("source", ["texture", "hdr_blobs"])
    @pytest.mark.parametrize("height, width", [(1, 1), (1, 5), (5, 1),
                                               (3, 5)])
    def test_tiny_scenes_build(self, config, source, height, width):
        # a 1 x 1 or 1 x N scene is valid and goes through both blurs
        spec = SceneSpec(source=source, seed=np.int64(2), width=width,
                         height=height, mean_level_frac=0.05)
        data = load_and_normalize(spec, config).data
        assert data.shape == (height, width)
        assert np.all(data >= 0)
        assert data.mean() == pytest.approx(50.0, rel=1e-12)

    @pytest.mark.parametrize("height, width",
                             [(1, 1), (3, 5), (1, 64), (300, 257), (512, 512)])
    def test_window_pass_equals_gaussian_filter(self, height, width):
        # bit for bit at the scenes' fixed sigmas: scipy is the oracle,
        # not a dependency
        from scipy.ndimage import gaussian_filter
        x = np.random.default_rng(height * width).standard_normal(
            (height, width))
        for sigma in (1.0, 1.2, 4.0):
            assert np.array_equal(scenes._window_blur(x, sigma),
                                  gaussian_filter(x, sigma)), sigma

    @pytest.mark.parametrize("height, width", [(1, 1), (3, 5), (1, 64),
                                               (300, 257), (512, 512),
                                               (2048, 2048)])
    def test_fft_pass_matches_gaussian_filter(self, height, width):
        # to rounding at the illumination field's sigma, an eighth of the
        # smaller side
        from scipy.ndimage import gaussian_filter
        x = np.random.default_rng(height + width).standard_normal(
            (height, width))
        sigma = 0.125 * min(height, width)
        want = gaussian_filter(x, sigma)
        got = scenes._fft_blur(x, sigma)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fft_pass_peak_memory(self):
        # the lines go in strips into one output frame per axis: a 512 x
        # 512 pass peaks under 3 frames of traced memory (5 as one FFT of
        # the whole frame per axis)
        x = np.random.default_rng(7).standard_normal((512, 512))
        tracemalloc.start()
        try:
            scenes._fft_blur(x, 64.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes

    def test_window_pass_peak_memory(self):
        # each strip takes its rows through the reflected indices as it is
        # blurred: a 512 x 512 pass peaks under 1.5 frames of traced memory
        # (2.3 with the whole frame extended first)
        x = np.random.default_rng(7).standard_normal((512, 512))
        tracemalloc.start()
        try:
            scenes._window_blur(x, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes

    def test_texture_pinned(self):
        # SHA-256 of two texture scenes, a ragged and a square one, as
        # scipy's gaussian_filter built them
        digest = hashlib.sha256()
        for height, width in ((300, 257), (64, 64)):
            digest.update(scenes._texture(11, width, height).tobytes())
        assert digest.hexdigest() == (
            "e3f06a5c79cb712404481f2202abd720b3e364a13b026aab44484232878d9745")


class TestSinusoid:
    def test_matches_quadrature(self, config):
        for freq, density in [(0.25, 400.0), (0.9, 1200.0), (1.6, 50.0)]:
            analytic = boxed_sinusoid(freq, density, config.pixel_pitch,
                                      64, 1)[0]
            oracle = sinusoid_by_quadrature(freq, density,
                                            config.pixel_pitch, 64)
            assert np.allclose(analytic, oracle, atol=1e-6 * density)

    def test_dc_case_is_flat(self, config):
        rowed = boxed_sinusoid(0.0, 100.0, 0.5, 8, 4)
        assert np.allclose(rowed, 100.0 * 0.25)

    def test_out_of_band_rejected(self, config):
        with pytest.raises(ConfigError):
            boxed_sinusoid(3.0, 100.0, 0.5, 8, 8)

    def test_outputs_pinned(self):
        # SHA-256 of the scenes at DC, inside the band and at its edge 1/p,
        # fixed so that a change to how the contrast is computed cannot
        # change a bit of them; frequencies past 1/p are rejected
        digest = hashlib.sha256()
        for pitch in (0.5, 1.7):
            for freq in (0.0, 0.25, 0.9, 1.0 / pitch):
                if freq > 1.0 / pitch:
                    with pytest.raises(ConfigError):
                        boxed_sinusoid(freq, 312.7, pitch, 37, 3)
                    continue
                digest.update(boxed_sinusoid(freq, 312.7, pitch, 37,
                                             3).tobytes())
        assert digest.hexdigest() == (
            "2d1a7e6ec1814d6eae824114f5147cfd41fd0079fb7b3dc183587548f4ff737b")


class TestPixelate:
    def test_contrast_consistency_with_theory(self):
        # fine-grid sinusoid, block-summed to pitch p, must show the
        # contrast the resolution theory predicts; amplitude measured by a
        # single-bin DFT on an integer number of periods
        density, p, k = 800.0, 1.0, 4
        fine_pitch = p / k
        for cycles in (3, 5, 7, 12):   # freq = cycles / (width * p)
            width_coarse = 16
            freq = cycles / (width_coarse * p)
            fine = boxed_sinusoid(freq, density, fine_pitch,
                                  width_coarse * k, k)
            # k x k cells sum into one coarse pixel (photon counts add)
            row = fine.reshape(1, k, width_coarse, k).sum(axis=(1, 3))[0]
            # bin magnitude is amplitude/2; peak-to-trough is 2x amplitude;
            # frequencies past coarse Nyquist alias with amplitude intact
            spectrum = np.fft.rfft(row) / row.size
            bin_index = min(cycles, row.size - cycles)
            measured = 4.0 * np.abs(spectrum[bin_index])
            assert measured == pytest.approx(
                contrast(freq, density, p), rel=1e-2)
