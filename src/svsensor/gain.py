"""Spatially-varying gain planning.

The planners pick, for each region or pixel, the largest gain that keeps the
amplified signal safely below full well.  With an estimated level ``m`` the
planned gain solves

    well_capacity = g * m + eta * g * sqrt(m)

so the Gaussian-approximated amplified signal sits ``eta`` standard
deviations of shot noise below saturation (eta = 2 leaves roughly a 2.2%
saturation probability).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .roi import RoiGrid
from .sensor import (Plan, PhotonEstimate, RadianceMap, RawCapture,
                     SensorConfig, _quantize_in_place, dequantize, draw_noise)

_WARMUP = 32  # pixels replayed to guess a chunk's start gain


@dataclass(frozen=True)
class GainMap:
    """A gain plan file: the gains of a ``Plan``, held to its check, which
    ``readout.fit_plan`` fits onto a frame.

    mode      'constant', 'per_roi' or 'per_pixel'
    roi_size  side of the square ROI grid (None allowed but in per_roi mode)
    values    scalar, per-ROI grid, or per-pixel array of gains
    eta       saturation-headroom parameter the plan was built with
    """

    mode: str
    values: np.ndarray
    roi_size: int | None = None
    eta: float = 0.0

    def __post_init__(self):
        if self.mode not in ("constant", "per_roi", "per_pixel"):
            raise ConfigError(f"unknown gain map mode {self.mode!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        if (vals.ndim == 0) != (self.mode == "constant"):
            raise ShapeError("constant mode takes a scalar value, per_roi "
                             "and per_pixel modes a 2-D value grid")
        _check_eta(self.eta)
        size = (1 if self.roi_size is None and self.mode != "per_roi"
                else self.roi_size)
        grid = vals.reshape(vals.shape or (1, 1))
        plan = Plan(size, grid, np.ones(grid.shape, np.int64), "digital")
        object.__setattr__(self, "values", plan.gains.reshape(vals.shape))

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "roi_size": self.roi_size,
            "eta": self.eta,
            "shape": list(np.shape(self.values)),
            "values": self.values.ravel().tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GainMap":
        try:
            vals = np.asarray(doc["values"], dtype=np.float64).reshape(
                doc.get("shape") or ())
            mode = doc["mode"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed gain plan ({exc!r})") from exc
        eta = doc.get("eta", 0.0)
        if isinstance(eta, bool) or not isinstance(eta, numbers.Real):
            raise DataError(f"gain plan eta {eta!r} is not a number")
        try:
            return cls(mode=mode, values=vals, roi_size=doc.get("roi_size"),
                       eta=eta)
        except ConfigError as exc:
            raise DataError(f"bad gain plan: {exc}") from exc


def _check_eta(eta) -> None:
    """ConfigError unless the headroom ``eta`` is finite and nonnegative."""
    if not 0 <= eta < math.inf:
        raise ConfigError(f"eta must be finite and nonnegative, not {eta}")


def _check_roi_size(roi_size) -> None:
    """ConfigError unless ``roi_size`` is at least 8."""
    if roi_size < 8:
        raise ConfigError("roi_size must be at least 8")


@dataclass
class PlanReport:
    """Diagnostics attached to a gain plan."""

    predicted_saturation_frac: float = 0.0
    empty_rois: list = field(default_factory=list)
    measured_saturation_frac: float | None = None


def gain_for_level(level, eta: float, config: SensorConfig):
    """Largest safe gain for an estimated photon level (a number, or an
    array of levels for an array of gains).

    Zero level means the pixel is dark and gets the maximum gain; the result
    is always clamped to the configured gain range.
    """
    m = np.asarray(level, dtype=np.float64)
    if not np.all((m >= 0) & (m < np.inf)):
        raise DataError("estimated level must be finite and nonnegative")
    _check_eta(eta)
    g = _safe_gains(m, eta, config)
    return float(g) if g.ndim == 0 else g


def _safe_gains(m: np.ndarray, eta: float, config: SensorConfig):
    """``gain_for_level`` of the float64 levels ``m``, unchecked: a level at
    or below 0 (dark) gets ``gain_max``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = config.well_capacity / (m + eta * np.sqrt(m))  # clipped below
    return np.where(m <= 0, config.gain_max,
                    np.clip(g, config.gain_min, config.gain_max))


def plan_gain_roi(snapshot: PhotonEstimate, roi_size: int, eta: float,
                  config: SensorConfig) -> tuple[GainMap, PlanReport]:
    """Two-shot strategy: plan one gain per ROI from a constant-gain pilot.

    Each ROI gets the largest gain that protects its brightest valid pixel.
    ROIs whose pilot pixels are all saturated fall back to gain_min and are
    listed in the report.
    """
    _check_roi_size(roi_size)
    grid = RoiGrid(*snapshot.data.shape, roi_size)
    peaks = grid.reduce(np.where(snapshot.validity_mask, snapshot.data,
                                 -np.inf), np.max)
    empty = peaks == -np.inf
    peaks = np.maximum(peaks, 0.0)
    gains = np.where(empty, config.gain_min, gain_for_level(peaks, eta, config))
    report = PlanReport(empty_rois=[tuple(ij) for ij in
                                    np.argwhere(empty).tolist()])
    lit = peaks > 0
    if lit.any():
        # headroom of each lit ROI's peak in shot-noise deviations
        z = (config.well_capacity / gains[lit] - peaks[lit]) / np.sqrt(peaks[lit])
        report.predicted_saturation_frac = float(np.mean(
            [0.5 * math.erfc(v / math.sqrt(2.0)) for v in z.tolist()]))
    gm = GainMap(mode="per_roi", values=gains, roi_size=roi_size, eta=eta)
    return gm, report


def next_gain(digit: int, gain: float, eta: float,
              config: SensorConfig) -> float:
    """Streaming update rule: gain for the next pixel from the previous
    readout, ``gain_for_level`` of its decoded level in plain floats.  A
    saturated readout resets the next gain to 1, a dark one to gain_max."""
    digit = float(digit)  # a NumPy integer digit would wrap below black
    if digit >= config.digital_max:
        return 1.0
    level = (digit - config.black_level) / config.adc_slope / gain
    if level <= 0:
        return config.gain_max
    g = config.well_capacity / (level + eta * math.sqrt(level))
    return min(max(g, config.gain_min), config.gain_max)


def capture_adaptive(scene: RadianceMap, eta: float, config: SensorConfig,
                     seed: int = 0) -> tuple[RawCapture, PlanReport]:
    """Closed-loop per-pixel capture: each readout sets the next pixel's gain.

    The physical randomness (photon arrivals and read noise) does not depend
    on the gain choice, so ``draw_noise`` draws it up front, the same
    realization every other capture reads at this seed.  The first pixel of
    the frame uses gain 1 and each later pixel, in C order, the
    ``next_gain`` of the readout before it.

    That recursion is sequential, so it is solved by speculating and
    repairing.  The scan is cut into chunks of ``isqrt(n)`` pixels.  Each
    chunk guesses its start gain: chunk 0 knows it (1.0), every other chunk
    replays the last 32 pixels of the chunk before from ``gain_max``.  All
    chunks then run at once, one numpy step per column.  Last, in scan
    order, a chunk whose true incoming gain (the repaired outgoing gain of
    the chunk before) differs from its guess is run again by the scalar body
    until its gain equals the speculative gain at the same pixel.  A gain is
    all the state the recursion carries, so from that pixel on the guessed
    trajectory is the true one; a chunk that never merges hands on its
    recomputed outgoing gain.  Clamps (a saturated readout resets the gain
    to 1, a dark one to ``gain_max``) erase all history, so on natural
    scenes most guesses hold or merge within a few pixels.

    The result is exact, not approximate.  The scalar body ``scan`` calls
    ``next_gain`` after a one-line ADC; the vector body ``step`` calls
    ``sensor._quantize_in_place``, ``sensor.dequantize`` and
    ``_safe_gains``.  Both do the same float operations in the same order
    (``np.rint`` rounds half to even like ``round``, ``np.sqrt`` is
    correctly rounded like ``math.sqrt``), so every digit and gain is bit
    for bit that of the plain sequential loop.
    """
    _check_eta(eta)
    noise = draw_noise(scene, config, seed)
    shape = scene.data.shape
    n = scene.data.size
    charge, n_post = noise.charge.ravel(), noise.n_post.ravel()
    digits = np.empty(n, dtype=np.uint16)
    gains = np.empty(n, dtype=np.float64)

    def scan(g, start, stop, guess=itertools.repeat(None)):
        """The scalar body over pixels [start, stop) from incoming gain
        ``g``: write their digits and gains and return the outgoing gain,
        or None at the first pixel whose gain equals its ``guess``."""
        out_d, out_g = [], []
        for c, post, s in zip(charge[start:stop].tolist(),
                              n_post[start:stop].tolist(), guess):
            if g == s:
                g = None
                break
            out_g.append(g)
            d = min(max(round((g * c + post) * config.adc_slope)
                        + config.black_level, 0), config.digital_max)
            out_d.append(d)
            g = next_gain(d, g, eta, config)
        digits[start:start + len(out_d)] = out_d
        gains[start:start + len(out_g)] = out_g
        return g

    def step(g, c, post):
        """One pixel of every chunk at once: the scalar body on arrays."""
        d = _quantize_in_place(g * c + post, config)
        nxt = _safe_gains(dequantize(d, config) / g, eta, config)
        nxt[d == config.digital_max] = 1.0
        return d, nxt

    size = math.isqrt(n)
    m = n // size  # chunks, one at least
    cut = m * size
    c_rows = charge[:cut].reshape(m, size)
    p_rows = n_post[:cut].reshape(m, size)
    d_rows = digits[:cut].reshape(m, size)
    g_rows = gains[:cut].reshape(m, size)
    guess = np.full(m, config.gain_max)
    for j in range(size - min(_WARMUP, size), size):
        guess[1:] = step(guess[1:], c_rows[:-1, j], p_rows[:-1, j])[1]
    guess[0] = 1.0
    for j in range(size):
        g_rows[:, j] = guess
        d_rows[:, j], guess = step(guess, c_rows[:, j], p_rows[:, j])
    starts, ends = g_rows[:, 0].tolist(), guess.tolist()
    g = ends[0]
    for i in range(1, m):
        got = (None if g == starts[i] else
               scan(g, i * size, (i + 1) * size, g_rows[i].tolist()))
        g = ends[i] if got is None else got  # None: the guess holds
    scan(g, cut, n)

    digits, gains = digits.reshape(shape), gains.reshape(shape)
    sat = digits == config.digital_max
    plan = Plan(1, gains, np.ones(shape, dtype=np.int64), "digital")
    raw = RawCapture(digits=digits, saturation_mask=sat, plan=plan,
                     seed=seed, meta={"strategy": "per_pixel", "eta": eta})
    report = PlanReport(measured_saturation_frac=float(sat.mean()))
    return raw, report


def gain_from_vignetting(vignette: np.ndarray, roi_size: int, eta: float,
                         config: SensorConfig) -> GainMap:
    """Gain map compensating lens falloff: per-ROI gain proportional to the
    inverse transmission, normalized so the ROI at the image center gets
    gain 1, then clamped to the configured range."""
    t = np.asarray(vignette, dtype=np.float64)
    if t.ndim != 2:
        raise ShapeError("vignette map must be 2-D")
    if not np.all((t > 0) & (t <= 1)):
        raise DataError("transmission values must lie in (0, 1]")
    h, w = t.shape
    grid = RoiGrid(h, w, roi_size)
    mean_t = grid.reduce(t, np.mean)
    rows, cols = grid.shape
    center = mean_t[min((h // 2) // roi_size, rows - 1),
                    min((w // 2) // roi_size, cols - 1)]
    gains = np.clip(center / mean_t, config.gain_min, config.gain_max)
    return GainMap(mode="per_roi", values=gains, roi_size=roi_size, eta=eta)


def quantize_to_ladder(gain_map: GainMap, ladder) -> GainMap:
    """Snap planned gains downward onto a discrete gain ladder (e.g. ISO
    steps or the gains present in a captured stack).  Snapping down keeps the
    saturation guarantee."""
    steps = np.sort(np.asarray(ladder, dtype=np.float64))
    if steps.size == 0:
        raise ConfigError("empty gain ladder")
    idx = np.searchsorted(steps, gain_map.values + 1e-12, side="right") - 1
    if np.any(idx < 0):
        raise DataError("planned gain below the lowest ladder step")
    return replace(gain_map, values=steps[idx])
