"""Read-noise calibration: dark variance measurement and the constrained
quadratic fit."""

import numpy as np
import pytest

from svsensor import (DataError, NumericalError, RadianceMap, SensorConfig,
                      dark_variance, fit_read_noise, simulate_capture)


def dark_frames(config, gain, count, seed, side=64):
    scene = RadianceMap(data=np.zeros((side, side)))
    return [simulate_capture(scene, gain, None, config, seed=seed + i)
            for i in range(count)]


def sweep_and_fit(config, gains, frames_per_gain, seed, side=64):
    samples = []
    for i, g in enumerate(gains):
        frames = dark_frames(config, g, frames_per_gain, seed + 1000 * i,
                             side=side)
        samples.append((g, dark_variance(frames)))
    return fit_read_noise(samples, config)


class TestDarkVariance:
    def test_identical_frames_give_zero(self, config):
        frame = np.full((16, 16), 300, dtype=np.uint16)
        assert dark_variance([frame, frame.copy()]) == 0.0

    def test_matches_closed_form(self, config):
        frames = dark_frames(config, 1.0, 40, seed=90)
        measured = dark_variance(frames)
        predicted = (config.sigma_pre ** 2 + config.sigma_post ** 2) * \
            config.adc_slope ** 2
        assert abs(measured - predicted) / predicted < 0.05

    def test_independent_of_black_level(self):
        a = SensorConfig(black_level_frac=0.05)
        b = SensorConfig(black_level_frac=0.20)
        va = dark_variance(dark_frames(a, 2.0, 40, seed=91))
        # same digit noise scale requires comparing through each slope
        vb = dark_variance(dark_frames(b, 2.0, 40, seed=91))
        assert va / a.adc_slope ** 2 == pytest.approx(vb / b.adc_slope ** 2,
                                                      rel=0.06)

    def test_needs_two_frames(self, config):
        with pytest.raises(DataError):
            dark_variance([np.zeros((4, 4))])

    def test_frames_keep_no_per_pixel_gain(self, config):
        # the gain check reads each capture's gain grid, not a full-frame
        # gain array that the capture would then keep
        frames = dark_frames(config, 2.0, 3, seed=94, side=16)
        dark_variance(frames)
        assert not any("gain" in vars(f) for f in frames)

    def test_frames_of_different_shapes_rejected(self, config):
        with pytest.raises(DataError, match="share dimensions"):
            dark_variance([np.zeros((4, 4)), np.zeros((4, 5))])

    def test_mixed_gains_rejected(self, config):
        frames = dark_frames(config, 1.0, 2, seed=92) + \
            dark_frames(config, 2.0, 2, seed=93)
        with pytest.raises(DataError):
            dark_variance(frames)


class TestFit:
    def test_exact_quadratic_recovered(self):
        gains = np.geomspace(1.0, 27.0, 8)
        samples = [(g, g * g * 0.33 ** 2 + 3.31 ** 2) for g in gains]
        profile = fit_read_noise(samples, units="electrons")
        assert profile.sigma_pre == pytest.approx(0.33, abs=1e-6)
        assert profile.sigma_post == pytest.approx(3.31, abs=1e-6)
        assert not profile.clipped

    def test_end_to_end_recovery(self, config):
        gains = np.geomspace(1.0, 27.0, 10)
        profile = sweep_and_fit(config, gains, 50, seed=94)
        assert profile.units == "electrons"
        assert abs(profile.sigma_pre - config.sigma_pre) / config.sigma_pre < 0.10
        assert abs(profile.sigma_post - config.sigma_post) / config.sigma_post < 0.10

    def test_negative_coefficient_clipped_with_warning(self):
        # pre-amp term absent: noise drives the unconstrained fit negative
        gains = [1.0, 2.0, 4.0, 8.0]
        rng = np.random.default_rng(95)
        samples = [(g, 10.0 - 0.02 * g * g + rng.normal(0, 0.01))
                   for g in gains]
        profile = fit_read_noise(samples, units="electrons")
        assert profile.sigma_pre == 0.0
        assert profile.clipped

    def test_matches_scipy_nnls(self):
        # the closed form against scipy's NNLS, the fit it replaced, over
        # sample sets that land on either side of the constraint: the same
        # optimum, so the same residual up to rounding of the variances'
        # size (on exact fits both residuals are that rounding)
        from scipy.optimize import nnls
        rng = np.random.default_rng(97)
        for _ in range(1200):
            n = int(rng.integers(3, 12))
            g = rng.uniform(1.0, 27.0, n)
            a = rng.uniform(0.0, 1.0) * rng.integers(0, 2)
            b = rng.uniform(0.0, 20.0) * rng.integers(0, 2)
            v = a * g * g + b + rng.normal(0.0, rng.choice([0, 0.01, 1, 10]),
                                           n)
            design = np.column_stack([g ** 2, np.ones_like(g)])
            coef, residual = nnls(design, v)
            ls = np.linalg.lstsq(design, v, rcond=None)[0]
            profile = fit_read_noise(list(zip(g, v)), units="electrons")
            assert profile.clipped == bool(ls[0] < 0 or ls[1] < 0)
            assert (abs(profile.fit_residual * np.sqrt(n) - residual)
                    <= 1e-12 * np.linalg.norm(v))
            for got, want in ((profile.sigma_pre, np.sqrt(coef[0])),
                              (profile.sigma_post, np.sqrt(coef[1]))):
                if want > 1e-6:
                    assert got == pytest.approx(want, rel=1e-9)

    def test_degenerate_design_rejected(self):
        samples = [(2.0, 5.0), (2.0, 5.1), (2.0, 4.9)]
        with pytest.raises(NumericalError):
            fit_read_noise(samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -4.0])
    def test_gains_finite_and_positive(self, bad):
        samples = [(1.0, 5.0), (bad, 6.0), (9.0, 40.0)]
        with pytest.raises(DataError, match="finite and positive"):
            fit_read_noise(samples)

    def test_needs_three_samples(self):
        with pytest.raises(DataError):
            fit_read_noise([(1.0, 5.0), (2.0, 6.0)])

    def test_scale_consistency(self, config):
        # fitting digit-unit variances then converting equals fitting in
        # electron units directly
        gains = np.geomspace(1.0, 27.0, 6)
        digit_samples = []
        for i, g in enumerate(gains):
            digit_samples.append(
                (g, dark_variance(dark_frames(config, g, 30, seed=96 + 100 * i))))
        via_digits = fit_read_noise(digit_samples, config)
        electron_samples = [(g, v / config.adc_slope ** 2)
                            for g, v in digit_samples]
        direct = fit_read_noise(electron_samples, units="electrons")
        assert via_digits.sigma_pre == pytest.approx(direct.sigma_pre, rel=1e-9)
        assert via_digits.sigma_post == pytest.approx(direct.sigma_post, rel=1e-9)

    def test_accuracy_improves_with_more_frames(self, config):
        # mean absolute recovery error shrinks roughly like 1/sqrt(frames)
        gains = np.geomspace(1.0, 27.0, 6)
        errors = {}
        for count in (10, 50, 250):
            errs = []
            for rep in range(10):
                profile = sweep_and_fit(config, gains, count,
                                        seed=200000 * count + 37 * rep,
                                        side=32)
                errs.append(abs(profile.sigma_post - config.sigma_post)
                            / config.sigma_post)
            errors[count] = float(np.mean(errs))
        assert errors[10] > errors[50] > errors[250]

    def test_post_dominates_pre_for_catalog_profiles(self):
        # profiles shaped like published camera calibrations: recovered
        # sigma_post should exceed sigma_pre by at least 5x
        profiles = [(0.11, 3.53), (1.17, 7.39), (0.52, 4.55), (0.23, 1.47)]
        gains = np.geomspace(1.0, 27.0, 10)
        for i, (pre, post) in enumerate(profiles):
            config = SensorConfig(sigma_pre=pre, sigma_post=post)
            profile = sweep_and_fit(config, gains, 50, seed=300 + 7000 * i,
                                    side=48)
            assert profile.sigma_post / max(profile.sigma_pre, 1e-9) >= 5.0
