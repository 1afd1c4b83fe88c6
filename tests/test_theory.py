"""Resolution theory: contrast, pooled noise, cutoff frequency, optimal
pitch, and the light-to-bin lookup table.

The cutoff solver is checked against a dense grid scan, and the contrast
formula against direct numerical integration of a sinusoid over pixel
footprints.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsensor import (BinLut, ConfigError, SensorConfig, TheoryParams,
                      contrast, cutoff_frequency, light_to_bin_lut,
                      noise_sigma, optimal_pitch, sweep_pitch)
from svsensor.theory import best_pitch_index, cutoff_frequencies


def contrast_by_quadrature(freq, density, pitch, samples=20001):
    """Oracle: integrate the sinusoid over one pixel footprint numerically
    and take peak-to-trough over a dense phase sweep."""
    phases = np.linspace(0.0, 2 * math.pi, 721)
    u = np.linspace(-pitch / 2.0, pitch / 2.0, samples)
    du = u[1] - u[0]
    vals = []
    for ph in phases:
        row = 0.5 * density * (np.cos(2 * math.pi * freq * u + ph) + 1.0)
        vals.append(np.trapezoid(row, dx=du) * pitch)  # times pitch in y
    vals = np.asarray(vals)
    return float(vals.max() - vals.min())


def brute_force_cutoff(density, pitch, gain, snr_t, config, points=10 ** 6):
    """Oracle: largest grid frequency whose contrast-to-noise ratio still
    meets the threshold."""
    freqs = np.linspace(0.0, 1.0 / pitch, points)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = density * pitch * np.sin(np.pi * pitch * freqs) / (np.pi * freqs)
    c[0] = density * pitch * pitch
    sigma = noise_sigma(density, pitch, gain, config)
    ok = c / sigma >= snr_t
    if not ok[0]:
        return None
    return float(freqs[np.nonzero(ok)[0].max()])


def scalar_cutoff(density, pitch, gain, snr_t, config):
    """Oracle: the one-lane bisection on ``contrast`` and ``noise_sigma``,
    to a bracket of 1e-9 of its upper end."""
    target = snr_t * noise_sigma(density, pitch, gain, config)
    if contrast(0.0, density, pitch) < target:
        return None
    lo, hi = 0.0, 1.0 / pitch
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if contrast(mid, density, pitch) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestContrast:
    def test_dc_limit(self):
        assert contrast(0.0, 100.0, 2.0) == pytest.approx(400.0)

    def test_first_zero(self):
        assert contrast(1.0 / 2.0, 100.0, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_direct_value(self):
        # 1000 * sin(pi/2) / (pi * 0.5)
        assert contrast(0.5, 1000.0, 1.0) == pytest.approx(636.6197723675814)

    def test_matches_quadrature_oracle(self):
        for freq, density, pitch in [(0.3, 500.0, 1.0), (0.2, 80.0, 2.0),
                                     (0.7, 1000.0, 0.5), (0.05, 10.0, 4.0)]:
            oracle = contrast_by_quadrature(freq, density, pitch)
            assert contrast(freq, density, pitch) == pytest.approx(
                oracle, rel=1e-4)

    def test_strictly_decreasing_in_frequency(self):
        freqs = np.linspace(1e-6, 1.0 / 1.5, 2000)
        vals = [contrast(f, 200.0, 1.5) for f in freqs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_band_rejected(self):
        with pytest.raises(ConfigError):
            contrast(1.1, 100.0, 1.0)


class TestNoiseSigma:
    def test_read_noise_floor(self, config):
        s = noise_sigma(1e-12, 1.0, 1e9, config)
        assert s == pytest.approx(config.sigma_pre, rel=1e-3)

    def test_protocol_plugin_value(self, config):
        # sqrt(0.33^2 + 3.31^2 + 200/2)
        assert noise_sigma(200.0, 1.0, 1.0, config) == pytest.approx(
            10.538738, rel=1e-6)

    def test_shot_term_scales_with_area(self, config):
        base = noise_sigma(120.0, 1.0, 2.0, config) ** 2
        double = noise_sigma(120.0, 2.0, 2.0, config) ** 2
        assert double - base == pytest.approx(3 * 120.0 / 2.0)

    @pytest.mark.parametrize("gain", [0.0, -1.0, math.nan, math.inf,
                                      1e200, 1e-200])
    def test_rejects_gains_out_of_range(self, config, gain):
        # the square of 1e200 overflows and that of 1e-200 is 0
        with pytest.raises(ConfigError):
            noise_sigma(100.0, 1.0, gain, config)
        with pytest.raises(ConfigError):
            cutoff_frequencies(100.0, 1.0, gain, 4.0, config)


class TestCutoff:
    def test_matches_brute_force_scan(self, config):
        rng = np.random.default_rng(31)
        for _ in range(20):
            density = float(rng.uniform(5.0, 2000.0))
            pitch = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            gain = float(rng.uniform(1.0, 27.0))
            fast = cutoff_frequency(density, pitch, gain, 4.0, config)
            slow = brute_force_cutoff(density, pitch, gain, 4.0, config,
                                      points=10 ** 5)
            step = (1.0 / pitch) / 10 ** 5
            if slow is None:
                assert fast is None
            else:
                assert fast == pytest.approx(slow, abs=step)

    def test_unresolvable_returns_sentinel(self, config):
        assert cutoff_frequency(0.001, 0.5, 1.0, 4.0, config) is None

    def test_boundary_threshold_gives_zero_cutoff(self, config):
        density, pitch, gain = 50.0, 1.0, 2.0
        snr_exact = contrast(0.0, density, pitch) / noise_sigma(
            density, pitch, gain, config)
        fc = cutoff_frequency(density, pitch, gain, snr_exact, config)
        assert fc == pytest.approx(0.0, abs=1e-8)

    def test_monotone_in_light_level(self, config):
        cuts = [cutoff_frequency(l0, 1.0, 1.0, 4.0, config)
                for l0 in np.geomspace(30, 3000, 12)]
        assert all(c is not None for c in cuts)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))


class TestCutoffTable:
    @given(densities=st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=12),
           gain=st.sampled_from([1.0, 2.7, 27.0]),
           snr_t=st.sampled_from([1.0, 4.0, 10.0]),
           pitch=st.sampled_from([0.5, 0.3, 1.7]))
    def test_lanes_equal_scalar_bisection(self, densities, gain, snr_t,
                                          pitch):
        # bit for bit per lane, and the best pitch that the scalar scan
        # over ascending pitches picks (ties to the smaller one)
        config = SensorConfig()
        pitches = tuple(pitch * k for k in (1, 2, 4, 8))
        table = cutoff_frequencies(densities, pitches, gain, snr_t, config)
        assert table.shape == (len(densities), 4)
        for i, density in enumerate(densities):
            best = None
            for j, p in enumerate(pitches):
                fc = scalar_cutoff(density, p, gain, snr_t, config)
                if fc is None:
                    assert np.isnan(table[i, j])
                    continue
                assert table[i, j] == fc
                if best is None or fc > best[1] + 1e-15:
                    best = (j, fc)
            assert best_pitch_index(table)[i] == (-1 if best is None
                                                  else best[0])

    def test_overflowing_lanes_resolve_nothing(self, config):
        # the square of a pitch of 1e308, or of 2 at a density of 1e308,
        # overflows: the contrast and the noise level are both inf, and
        # such a lane resolves nothing, beside lanes that keep their cutoffs.
        # At a density of 1e-320 the pitch of 1e308 keeps a finite contrast
        # and noise, but its sine's argument pi * p * f overflows: no cutoff
        densities = [100.0, 1000.0, 1e308, 1e-320]
        pitches = [0.5, 2.0, 1e308]
        table = cutoff_frequencies(densities, pitches, 1.0, 4.0, config)
        assert np.isnan(table[:, 2]).all() and np.isnan(table[2, 1])
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]:
            assert table[i, j] == cutoff_frequency(
                densities[i], pitches[j], 1.0, 4.0, config)
        assert (best_pitch_index(table[:, 2:]) == -1).all()

    @pytest.mark.parametrize("densities, pitches, gain", [
        ([1.0, float("nan")], [0.5], 1.0), ([1.0, -1.0], [0.5], 1.0),
        ([1.0, 0.0], [0.5], 1.0), ([1.0], [0.5, 0.0], 1.0),
        ([1.0], [0.5], float("nan")), ([1.0], [0.5], float("inf")),
        ([], [0.5], float("nan"))])
    def test_rejects_bad_lanes(self, config, densities, pitches, gain):
        with pytest.raises(ConfigError):
            cutoff_frequencies(densities, pitches, gain, 4.0, config)


class TestNoiseSigmaAgainstSimulation:
    def test_pooled_variance_of_boxed_sinusoid(self, config):
        # capture the boxed sinusoid and pool estimator residuals over all
        # phases: variance must land on sigma_pre^2 + sigma_post^2/g^2 +
        # density * pitch^2 / 2, independent of frequency
        from svsensor import (RadianceMap, boxed_sinusoid, estimate_photons,
                              simulate_capture)
        density, gain = 800.0, 2.0
        pitch = config.pixel_pitch
        for freq, seed in [(0.3, 33), (1.1, 34)]:
            scene_data = boxed_sinusoid(freq, density, pitch, 512, 128)
            scene = RadianceMap(data=scene_data)
            raw = simulate_capture(scene, gain, None, config, seed=seed)
            est = estimate_photons(raw, config)
            residuals = (est.data - scene_data)[est.validity_mask]
            pooled = residuals.var(ddof=1)
            pred = noise_sigma(density, pitch, gain, config) ** 2
            se = pred * np.sqrt(2.0 / (residuals.size - 1))
            assert abs(pooled - pred) < 3 * se, freq


class TestOptimalPitch:
    def params(self):
        return TheoryParams(snr_t=4.0, pitch_candidates=(0.5, 1.0, 2.0, 4.0))

    def test_bright_prefers_smallest(self, config):
        p_star, _ = optimal_pitch(5000.0, 1.0, self.params(), config)
        assert p_star == 0.5

    def test_dark_prefers_largest(self, config):
        p_star, _ = optimal_pitch(2.0, 1.0, self.params(), config)
        assert p_star == 4.0

    def test_nothing_resolvable_returns_none(self, config):
        p_star, cutoffs = optimal_pitch(0.001, 1.0, self.params(), config)
        assert p_star is None
        assert all(v is None for v in cutoffs.values())

    def test_nonincreasing_in_light(self, config):
        params = TheoryParams(snr_t=4.0, pitch_candidates=(0.5, 1.0, 2.0, 4.0),
                              light_grid=tuple(np.geomspace(0.2, 4000.0, 20)))
        curve = sweep_pitch(params, config)
        best = np.where(np.isnan(curve.best_pitch), params.pitch_candidates[-1],
                        curve.best_pitch)
        assert all(a >= b - 1e-12 for a, b in zip(best, best[1:]))


class TestBinLut:
    def test_bright_grid_is_all_ones(self, config):
        params = TheoryParams(snr_t=4.0, pitch_candidates=(0.5, 1.0, 2.0, 4.0),
                              light_grid=(3000.0, 5000.0))
        lut = light_to_bin_lut(params, config, 0.5)
        assert lut.factors.tolist() == [1, 1]

    def test_reproduces_pitch_decisions(self, config):
        grid = tuple(np.geomspace(0.2, 4000.0, 24))
        params = TheoryParams(snr_t=4.0, pitch_candidates=(0.5, 1.0, 2.0, 4.0),
                              light_grid=grid)
        lut = light_to_bin_lut(params, config, 0.5)
        for l0 in grid:
            p_star, _ = optimal_pitch(l0, 1.0, params, config)
            expect = 64 if p_star is None else int(round((p_star / 0.5) ** 2))
            assert lut.lookup(l0) == expect

    def test_monotone_nonincreasing(self, config):
        params = TheoryParams(snr_t=4.0, pitch_candidates=(0.5, 1.0, 2.0, 4.0),
                              light_grid=tuple(np.geomspace(0.2, 4000.0, 24)))
        lut = light_to_bin_lut(params, config, 0.5)
        assert all(a >= b for a, b in zip(lut.factors, lut.factors[1:]))

    def test_requires_ladder_candidates(self, config):
        params = TheoryParams(snr_t=4.0, pitch_candidates=(0.5, 1.0, 1.5),
                              light_grid=(10.0,))
        with pytest.raises(ConfigError):
            light_to_bin_lut(params, config, 0.5)

    @given(n=st.integers(1, 24), lo=st.floats(1e-3, 10.0),
           span=st.floats(1.0, 1e4), unit_pitch=st.floats(0.1, 4.0),
           snr_t=st.floats(0.5, 10.0), gain=st.floats(1.0, 27.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_json_document(self, n, lo, span, unit_pitch, snr_t, gain, seed):
        # every field, exact after a trip through JSON text
        lights = np.geomspace(lo, lo * span, n)
        factors = -np.sort(-np.random.default_rng(seed).choice(
            [1, 4, 16, 64], n))
        lut = BinLut(lights=lights, factors=factors, unit_pitch=unit_pitch,
                     snr_t=snr_t, gain=gain)
        assert json.loads(json.dumps(lut.to_json_dict())) == {
            "unit_pitch": unit_pitch, "snr_t": snr_t, "gain": gain,
            "lights": lights.tolist(), "factors": factors.tolist()}


class TestParamsValidation:
    def test_rejects_unordered_pitches(self):
        with pytest.raises(ConfigError):
            TheoryParams(pitch_candidates=(1.0, 0.5))

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigError):
            TheoryParams(snr_t=0.0)

    @pytest.mark.parametrize("field, value", [
        ("snr_t", float("nan")), ("snr_t", float("inf")),
        ("pitch_candidates", (0.5, float("nan"))),
        ("pitch_candidates", (0.5, float("inf"))),
        ("light_grid", (1.0, float("nan"))),
        ("light_grid", (1.0, float("inf"))),
        # the largest bin factor, (1e150 / 1e-300)^2, is not finite
        ("pitch_candidates", (1e-300, 1e150))])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ConfigError):
            TheoryParams(**{field: value})
