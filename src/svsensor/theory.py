"""Resolution-versus-noise analysis for pixel pitch selection.

A sinusoidal scene of frequency ``f0`` (cycles per micrometer) and photon
density ``l0`` (electrons per square micrometer), imaged through a pixel of
pitch ``p``, keeps a noise-free peak-to-trough contrast of

    c(f0) = l0 * p * sin(pi * p * f0) / (pi * f0)       [electrons]

while the measured noise pools to a frequency-independent deviation

    sigma = sqrt(sigma_pre^2 + sigma_post^2 / g^2 + l0 * p^2 / 2).

The highest frequency with c/sigma above a threshold defines the effective
resolution of that pitch at that light level; sweeping pitches gives the
light-dependent optimal pitch, realized in hardware by binning unit pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sensor import BIN_LADDER, SensorConfig

_CUTOFF_REL_TOL = 1e-9  # cutoff bisection stops at this relative bracket width


@dataclass(frozen=True)
class TheoryParams:
    """Sweep configuration: SNR threshold, candidate pitches (micrometers,
    ascending) and photon-density grid (electrons per square micrometer,
    ascending)."""

    snr_t: float = 4.0
    pitch_candidates: tuple = (0.5, 1.0, 2.0, 4.0)
    light_grid: tuple = ()

    def __post_init__(self):
        if not 0 < self.snr_t < math.inf:
            raise ConfigError("snr_t must be positive and finite")
        p = np.asarray(self.pitch_candidates, dtype=float)
        if p.size == 0 or not _finite_ascending(p):
            raise ConfigError("pitch candidates must be positive, finite and "
                              "strictly ascending")
        # the largest bin factor, (p[-1] / p[0])^2, is a float
        ratio = float(p[-1]) / float(p[0])
        if not ratio * ratio < math.inf:
            raise ConfigError("pitch candidates must span a ratio whose "
                              "square is finite")
        if len(self.light_grid) and not _finite_ascending(
                np.asarray(self.light_grid, dtype=float)):
            raise ConfigError("light grid must be positive, finite and "
                              "strictly ascending")


def _finite_ascending(values: np.ndarray) -> bool:
    return bool(np.all((values > 0) & (values < np.inf))
                and np.all(np.diff(values) > 0))


def contrast(freq: float, photon_density: float, pitch: float) -> float:
    """Peak-to-trough contrast of the box-filtered sinusoid, in electrons.

    Continuous at freq -> 0 where it tends to photon_density * pitch^2.
    Frequencies past the first response zero (1/pitch) are out of the
    modeled regime and rejected.
    """
    if photon_density <= 0 or pitch <= 0:
        raise ConfigError("photon density and pitch must be positive")
    if freq < 0 or freq > 1.0 / pitch:
        raise ConfigError("frequency must lie in [0, 1/pitch]")
    if freq == 0:
        return photon_density * pitch * pitch
    return photon_density * pitch * math.sin(math.pi * pitch * freq) / (math.pi * freq)


def noise_sigma(photon_density: float, pitch: float, gain: float,
                config: SensorConfig) -> float:
    """Pooled standard deviation of shot plus read noise for a pitch-p pixel;
    independent of the signal frequency."""
    if not (photon_density >= 0 and pitch > 0):
        raise ConfigError("need photon density >= 0 and pitch > 0")
    return math.sqrt(_read_variance(gain, config)
                     + photon_density * pitch * pitch / 2.0)


def _read_variance(gain: float, config: SensorConfig) -> float:
    """Read noise variance referred to the input at ``gain``, sigma_pre^2 +
    sigma_post^2 / gain^2; ConfigError unless the gain is positive and its
    square a finite float above 0."""
    if not (gain > 0 and 0 < gain * gain < math.inf):
        raise ConfigError(f"gain must be positive with a square that is a "
                          f"finite float above 0, not {gain!r}")
    return config.sigma_pre ** 2 + config.sigma_post ** 2 / gain ** 2


def cutoff_frequencies(densities, pitches, gain: float, snr_t: float,
                       config: SensorConfig) -> np.ndarray:
    """Highest frequency whose contrast-to-noise ratio reaches ``snr_t``,
    for every photon density (rows) and pitch (columns).

    Contrast decreases strictly on (0, 1/pitch) while the noise level is
    flat, so each crossing is unique and bisection suffices.  All lanes are
    bisected together, each with the float operations of ``contrast`` and
    ``noise_sigma`` and stopping at its own bracket width, so a lane's
    cutoff does not depend on the others.  NaN marks a lane where even the
    zero-frequency contrast falls short, or where the noise level overflows:
    nothing is resolved at that pitch and light level (distinct from a
    cutoff of 0).
    """
    d = np.asarray(densities, dtype=np.float64).reshape(-1, 1)
    p = np.asarray(pitches, dtype=np.float64).reshape(1, -1)
    if not (np.all(d > 0) and np.all(p > 0)):
        raise ConfigError("need photon density > 0 and pitch > 0")
    read = _read_variance(gain, config)
    # a density or pitch far out of range overflows to inf, or its sine to
    # NaN, in its own lanes only
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        target = snr_t * np.sqrt(read + d * p * p / 2.0)
        dc = d * p * p
        resolved = ~(dc < target) & np.isfinite(target)
        lo = np.zeros(np.broadcast_shapes(d.shape, p.shape))
        hi = 1.0 / p + lo
        active = resolved & (hi - lo > _CUTOFF_REL_TOL * hi)
        while active.any():
            mid = 0.5 * (lo + hi)
            # a bracket of adjacent subnormals has no float between its
            # ends and can stay wider than the tolerance: it stops too
            active &= (lo < mid) & (mid < hi)
            c = np.where(mid == 0, dc,
                         d * p * np.sin(np.pi * p * mid) / (np.pi * mid))
            above = c >= target
            lo = np.where(active & above, mid, lo)
            hi = np.where(active & ~above, mid, hi)
            active &= hi - lo > _CUTOFF_REL_TOL * hi
    return np.where(resolved, 0.5 * (lo + hi), np.nan)


def best_pitch_index(cutoffs: np.ndarray) -> np.ndarray:
    """Per row of a ``cutoff_frequencies`` table, the column with the
    highest cutoff, or -1 where no pitch resolves anything.  Columns are
    taken in ascending pitch order and a later one wins only above the best
    cutoff plus 1e-15, so exact ties go to the smaller pitch."""
    best = np.full(cutoffs.shape[0], -1)
    best_fc = np.full(cutoffs.shape[0], np.nan)
    for j, fc in enumerate(cutoffs.T):
        take = ~np.isnan(fc) & ((best < 0) | (fc > best_fc + 1e-15))
        best[take], best_fc[take] = j, fc[take]
    return best


def ladder_bin_factors(cutoffs: np.ndarray, ladder=BIN_LADDER) -> np.ndarray:
    """Per row of a ``cutoff_frequencies`` table over the pitch ladder
    ``unit_pitch * ladder``, the bin factor N = k * k of the
    ``best_pitch_index``, or the largest factor where no pitch resolves."""
    best = best_pitch_index(cutoffs)
    return np.where(best >= 0, np.asarray(ladder)[best] ** 2, ladder[-1] ** 2)


def cutoff_frequency(photon_density: float, pitch: float, gain: float,
                     snr_t: float, config: SensorConfig) -> float | None:
    """``cutoff_frequencies`` of one density and pitch: the cutoff, or None
    when nothing is resolved."""
    fc = float(cutoff_frequencies(photon_density, pitch, gain, snr_t,
                                  config)[0, 0])
    return None if math.isnan(fc) else fc


def optimal_pitch(photon_density: float, gain: float, params: TheoryParams,
                  config: SensorConfig) -> tuple[float | None, dict]:
    """Pitch with the highest cutoff frequency at this light level.

    Candidates that resolve nothing are excluded; exact ties go to the
    smaller pitch.  Returns (pitch or None, {pitch: cutoff}); None means no
    candidate resolves anything and the caller should bin maximally.
    """
    table = cutoff_frequencies(photon_density, params.pitch_candidates, gain,
                               params.snr_t, config)
    cutoffs = {p: None if math.isnan(fc) else fc
               for p, fc in zip(params.pitch_candidates, table[0].tolist())}
    j = int(best_pitch_index(table)[0])
    return (None if j < 0 else params.pitch_candidates[j]), cutoffs


@dataclass(frozen=True)
class PitchCurve:
    """Sweep result: optimal pitch and its cutoff per light level, plus the
    full cutoff table."""

    lights: np.ndarray
    pitches: np.ndarray
    cutoffs: np.ndarray        # shape (len(lights), len(pitches)); NaN = unresolvable
    best_pitch: np.ndarray     # NaN where nothing resolves


def sweep_pitch(params: TheoryParams, config: SensorConfig,
                gain: float = 1.0) -> PitchCurve:
    """Evaluate cutoff frequencies across the light grid and pick optima."""
    lights = np.asarray(params.light_grid, dtype=float)
    pitches = np.asarray(params.pitch_candidates, dtype=float)
    if lights.size == 0:
        raise ConfigError("light grid is empty")
    table = cutoff_frequencies(lights, pitches, gain, params.snr_t, config)
    best = best_pitch_index(table)
    best = np.where(best >= 0, pitches[best], np.nan)
    return PitchCurve(lights=lights, pitches=pitches, cutoffs=table,
                      best_pitch=best)


@dataclass(frozen=True)
class BinLut:
    """Monotone step function from photon density to bin factor N."""

    lights: np.ndarray
    factors: np.ndarray
    unit_pitch: float
    snr_t: float
    gain: float

    def lookup(self, photon_density: float) -> int:
        """N for the nearest grid light level at or below the query (the
        dimmest grid entry for anything dimmer)."""
        idx = np.searchsorted(self.lights, photon_density, side="right") - 1
        return int(self.factors[max(idx, 0)])

    def to_json_dict(self) -> dict:
        return {
            "unit_pitch": self.unit_pitch,
            "snr_t": self.snr_t,
            "gain": self.gain,
            "lights": self.lights.tolist(),
            "factors": self.factors.tolist(),
        }


def light_to_bin_lut(params: TheoryParams, config: SensorConfig,
                     unit_pitch: float, gain: float = 1.0) -> BinLut:
    """Tabulate the optimal bin factor N = (p*/unit_pitch)^2 over the light
    grid.  Light levels where nothing resolves take the maximum bin factor."""
    expected = tuple(unit_pitch * k for k in BIN_LADDER)
    got = tuple(params.pitch_candidates)
    if len(got) != len(expected) or any(
            abs(a - b) > 1e-12 * b for a, b in zip(got, expected)):
        raise ConfigError(
            f"pitch candidates must be unit_pitch * {BIN_LADDER}")
    curve = sweep_pitch(params, config, gain)
    return BinLut(lights=curve.lights,
                  factors=ladder_bin_factors(curve.cutoffs),
                  unit_pitch=unit_pitch, snr_t=params.snr_t, gain=gain)
