"""Binning readout modes, spatially-varying capture, and the gain-stack
compositing emulator.

Three ways to merge an aligned k x k block of unit pixels (N = k^2):

    additive   charges sum on a shared sense node before amplification; the
               amplifier must run at g_hat = g / N to keep the summed signal
               inside the same voltage headroom; one post-amp noise draw.
    average    analog voltages average at full gain g; one post-amp draw.
    digital    every unit pixel is read out and digitized on its own (N
               post-amp draws), the digits averaged afterwards.

All modes cut the photon-noise term by N and are decoded by the same nominal
gain g, so the estimator stays ``dequantize(digits) / g`` everywhere.

Reproducibility: one seed is one noise realization.  Every planned capture
goes through ``read_out``, which digitizes a ``sensor.draw_noise``
realization: the whole frame drawn in a fixed order, independent of the
plan (unit-pixel photons and read noise, then superpixel post-amp normals on
the global k-grids).  Captures of the same scene with the same seed but
different plans therefore share their physical noise realization: a scalar
gain and a grid of that gain give the same digits, and the evaluation
protocol draws one realization and reads it out under each method's plan
(``read_plan``).  The per-pixel adaptive loop (``gain.capture_adaptive``)
reads the same draws through its own sequential recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .gain import GainMap, is_json_int
from .roi import RoiGrid
from .sensor import (PhotonEstimate, RadianceMap, RawCapture, Realization,
                     SensorConfig, draw_noise, estimate_photons, quantize)
from .theory import BIN_LADDER, TheoryParams, optimal_pitch

BIN_MODES = ("additive", "average", "digital")


@dataclass(frozen=True)
class BinMap:
    """Per-ROI bin plan: factors N in {1, 4, 16, 64} and one binning mode."""

    roi_size: int
    factors: np.ndarray
    mode: str = "additive"

    def __post_init__(self):
        if self.mode not in BIN_MODES:
            raise ConfigError(f"unknown binning mode {self.mode!r}")
        f = np.asarray(self.factors, dtype=np.int64)
        if f.ndim != 2:
            raise ShapeError("bin factors must form a 2-D ROI grid")
        allowed = {k * k for k in BIN_LADDER}
        if not set(np.unique(f).tolist()) <= allowed:
            raise ConfigError(f"bin factors must be squares from {sorted(allowed)}")
        for n in np.unique(f):
            if self.roi_size % int(math.isqrt(int(n))) != 0:
                raise ConfigError("every linear bin factor must divide roi_size")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "factors", f)

    def to_json_dict(self) -> dict:
        ks = np.sqrt(self.factors).astype(int)
        return {
            "roi_size": self.roi_size,
            "mode": self.mode,
            "shape": list(self.factors.shape),
            "values": ks.ravel().tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BinMap":
        try:
            ks = np.asarray(doc["values"], dtype=np.float64).reshape(doc["shape"])
            roi_size, mode = doc["roi_size"], doc["mode"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed bin plan ({exc!r})") from exc
        if not is_json_int(roi_size):
            raise DataError(f"bin plan roi_size {roi_size!r} is not an integer")
        if not np.all(np.isfinite(ks) & (ks == np.rint(ks))):
            raise DataError("bin plan linear factors must be integers")
        ks = ks.astype(np.int64)
        return cls(roi_size=roi_size, factors=ks * ks, mode=mode)


@dataclass(frozen=True)
class GainStack:
    """Frames of the same scene and exposure captured at increasing gains."""

    gains: tuple
    frames: tuple

    def __post_init__(self):
        if len(self.gains) != len(self.frames) or not self.gains:
            raise DataError("stack needs one frame per gain")
        if np.any(np.diff(np.asarray(self.gains, dtype=float)) <= 0):
            raise DataError("stack gains must be strictly increasing")
        shapes = {f.digits.shape for f in self.frames}
        if len(shapes) > 1:
            raise ShapeError("stack frames must share dimensions")

    def frame_for_gain(self, gain: float) -> tuple[int, RawCapture]:
        for i, g in enumerate(self.gains):
            if abs(g - gain) <= 1e-9 * max(abs(g), 1.0):
                return i, self.frames[i]
        raise DataError(
            f"gain {gain} missing from stack {list(self.gains)}; quantize the "
            "plan to the stack's gain ladder first")


def _block_sum(arr: np.ndarray, k: int) -> np.ndarray:
    h, w = arr.shape
    return arr.reshape(h // k, k, w // k, k).sum(axis=(1, 3))


def _replicate(arr: np.ndarray, k: int) -> np.ndarray:
    return np.repeat(np.repeat(arr, k, axis=0), k, axis=1)


def _pad_to_multiple(arr: np.ndarray, k: int) -> np.ndarray:
    h, w = arr.shape
    return np.pad(arr, ((0, -h % k), (0, -w % k)), mode="edge")


def _check_gains(gain, factor, mode: str, config: SensorConfig) -> None:
    """Every amplifier setting must lie in the configured gain range.  Under
    additive binning with N > 1 the amplifier runs at g / N, which must not
    fall below gain_min."""
    g = np.asarray(gain, dtype=np.float64)
    n = np.broadcast_to(factor, g.shape)
    additive = (n > 1) & (mode == "additive")
    low = additive & (g / n < config.gain_min)
    if low.any():
        g0, n0 = float(g[low].flat[0]), int(n[low].flat[0])
        raise ConfigError(
            f"additive binning at gain {g0} with N={n0} needs an amplifier "
            f"gain of {g0 / n0}, below gain_min={config.gain_min}; increase "
            "the gain or reduce the bin factor")
    config.check_gain(g[~additive])


def _max_k(factor, mode: str) -> int:
    """Largest superpixel side whose post-amp draws a readout reads; digital
    binning reads only unit-pixel draws."""
    return 1 if mode == "digital" else math.isqrt(int(np.max(factor)))


def read_out(noise: Realization, gain, factor, mode: str,
             config: SensorConfig):
    """The capture kernel: digitize a ``draw_noise`` realization under a
    per-pixel gain and bin factor (arrays or scalars) and one binning mode.
    Analog modes read the superpixel draws of every k they bin at, so the
    realization must be drawn at least that far.

    A pixel with factor N = k * k belongs to the k x k superpixel that
    starts at a multiple of k in both axes; gain and factor must be constant
    over each such superpixel (an ROI grid whose size every k divides
    guarantees it).  Superpixels cut by the frame edge are padded by edge
    replication.  Returns unit-resolution digits, each superpixel's value
    replicated over its footprint, and the saturation mask.
    """
    charge = noise.charge
    h, w = charge.shape
    factor = np.broadcast_to(np.asarray(factor, dtype=np.int64), (h, w))
    unit = quantize(gain * charge + noise.n_post, config)
    unit_sat = unit == config.digital_max
    digits, sat = unit, unit_sat
    for k in BIN_LADDER[1:]:
        n = k * k
        sel = factor == n
        if not sel.any():
            continue
        if mode == "digital":
            # integer block sums of digits and of clipped unit pixels
            d_sup = np.rint(_block_sum(_pad_to_multiple(unit, k), k) / n
                            ).astype(np.uint16)
            sat_sup = _block_sum(_pad_to_multiple(unit_sat, k), k) > 0
        else:
            g = np.broadcast_to(gain, (h, w))[::k, ::k]
            summed = _block_sum(_pad_to_multiple(charge, k), k)
            if mode == "additive":
                # shared sense node holds at most N wells' worth of charge
                summed = np.minimum(summed, n * config.well_capacity)
                v = (g / n) * summed + noise.sup_post[k]
            else:
                v = g * (summed / n) + noise.sup_post[k]
            d_sup = quantize(v, config)
            sat_sup = d_sup == config.digital_max
        digits = np.where(sel, _replicate(d_sup, k)[:h, :w], digits)
        sat = np.where(sel, _replicate(sat_sup, k)[:h, :w], sat)
    return digits, sat


def bin_capture(scene: RadianceMap, gain: float, factor: int, mode: str,
                config: SensorConfig, seed: int = 0) -> RawCapture:
    """Capture the whole scene under one gain and one bin factor, returning
    the reduced-resolution superpixel image.  Its digits are those of a
    uniform ``BinMap`` capture at the same seed, subsampled ``[::k, ::k]``."""
    if mode not in BIN_MODES:
        raise ConfigError(f"unknown binning mode {mode!r}")
    k = math.isqrt(int(factor))
    if k * k != factor or k not in BIN_LADDER:
        raise ConfigError(f"bin factor must be a square of {BIN_LADDER}")
    if scene.height % k or scene.width % k:
        raise ShapeError("scene dimensions must be divisible by the bin factor")
    _check_gains(gain, factor, mode, config)

    noise = draw_noise(scene, config, seed, _max_k(factor, mode))
    digits, sat = read_out(noise, float(gain), factor, mode, config)
    digits, sat = digits[::k, ::k], sat[::k, ::k]
    return RawCapture(digits=digits, gain=np.full(digits.shape, float(gain)),
                      bin_factor=np.full(digits.shape, factor, dtype=np.int64),
                      saturation_mask=sat, seed=seed,
                      meta={"mode": mode, "factor": int(factor)})


def capture_spatially_varying(scene: RadianceMap, gain_map, bin_map: BinMap,
                              config: SensorConfig, seed: int = 0
                              ) -> tuple[RawCapture, PhotonEstimate]:
    """Capture with per-ROI gain and bin factor.

    The returned capture and estimate are at unit resolution with each
    superpixel's value replicated over its footprint (the nearest-neighbor
    upsampled view); ``native_estimate_blocks`` recovers the per-ROI native
    resolution.  Metadata records the per-ROI parameters.
    """
    noise = draw_noise(scene, config, seed,
                       _max_k(bin_map.factors, bin_map.mode))
    return read_plan(noise, gain_map, bin_map, config)


def read_plan(noise: Realization, gain_map, bin_map: BinMap,
              config: SensorConfig) -> tuple[RawCapture, PhotonEstimate]:
    """``capture_spatially_varying`` of a drawn realization: read it out
    under per-ROI gains and bin factors, without drawing again."""
    grid = RoiGrid(*noise.charge.shape, bin_map.roi_size)
    grid.check(bin_map.factors, "bin map")
    if isinstance(gain_map, GainMap):
        gain_grid = gain_map.on_grid(grid)
    else:
        gain_grid = np.broadcast_to(np.asarray(gain_map, dtype=float),
                                    grid.shape).copy()
    _check_gains(gain_grid, bin_map.factors, bin_map.mode, config)

    gain_full = grid.expand(gain_grid)
    bin_full = grid.expand(bin_map.factors)
    digits, sat = read_out(noise, gain_full, bin_full, bin_map.mode, config)
    raw = RawCapture(digits=digits, gain=gain_full, bin_factor=bin_full,
                     saturation_mask=sat, seed=noise.seed,
                     meta={"roi_size": grid.size, "mode": bin_map.mode,
                           "gain_grid": gain_grid.tolist(),
                           "bin_grid": bin_map.factors.tolist()})
    return raw, estimate_photons(raw, config)


def plan_bin_roi(snapshot: PhotonEstimate, roi_size: int, mode: str,
                 config: SensorConfig, snr_t: float, gain: float) -> BinMap:
    """Per-ROI bin plan from a pilot estimate.

    Each ROI's mean valid level (negative estimates count as 0), as a photon
    density over the unit pitch, gets the bin factor of its exact optimal
    pitch among ``pixel_pitch * BIN_LADDER`` at ``gain`` and ``snr_t``
    (``theory.optimal_pitch``).  Dark ROIs, ROIs without a valid pixel and
    ROIs where no pitch resolves anything get the largest factor.
    """
    params = TheoryParams(snr_t=snr_t, pitch_candidates=tuple(
        config.pixel_pitch * k for k in BIN_LADDER))
    valid = snapshot.validity_mask
    grid = RoiGrid(*valid.shape, roi_size)
    total = grid.reduce(np.where(valid, np.clip(snapshot.data, 0.0, None), 0.0),
                        np.sum, 0.0)
    count = grid.reduce(valid, np.sum, False)
    density = np.divide(total, count, out=np.zeros(grid.shape),
                        where=count > 0) / config.pixel_pitch ** 2
    factors = np.full(grid.shape, BIN_LADDER[-1] ** 2, dtype=np.int64)
    for ij in zip(*np.nonzero(density > 0)):
        p_star, _ = optimal_pitch(float(density[ij]), gain, params, config)
        if p_star is not None:
            factors[ij] = int(round((p_star / config.pixel_pitch) ** 2))
    return BinMap(roi_size=roi_size, factors=factors, mode=mode)


def native_estimate_blocks(raw: RawCapture, estimate: PhotonEstimate):
    """The native-resolution views of a spatially-varying capture's
    estimate: yield (k, ROIs read out at linear bin factor k, the estimate
    sampled ``[::k, ::k]``) for each k the capture uses.  The view holds one
    value per k x k superpixel; ROI (i, j)'s superpixels fill its rows
    ``i * roi_size // k`` onward and columns ``j * roi_size // k`` onward."""
    r = raw.meta.get("roi_size")
    if r is None:
        raise DataError("capture carries no ROI metadata")
    ks = np.sqrt(raw.bin_factor[::r, ::r]).astype(np.int64)
    for k in np.unique(ks).tolist():
        yield k, ks == k, estimate.data[::k, ::k]


def compose_from_gain_stack(stack: GainStack, gain_map: GainMap
                            ) -> tuple[RawCapture, np.ndarray]:
    """Assemble a spatially-varying capture by copying each ROI from the
    stack frame whose gain matches the plan.

    Every planned gain must exist in the stack (quantize the plan onto the
    stack's gains first, snapping downward).  Each ROI of the composite has
    the noise statistics of a direct spatially-varying capture; when every
    frame was captured at one seed, the composite is that direct capture at
    that seed, byte for byte.  Also returns the per-ROI frame provenance.
    """
    h, w = stack.frames[0].digits.shape
    per_roi = gain_map.mode == "per_roi"
    grid = RoiGrid(h, w, gain_map.roi_size if per_roi else max(h, w))
    gains = gain_map.on_grid(grid)

    digits = np.empty((h, w), dtype=np.uint16)
    sat = np.empty((h, w), dtype=bool)
    bin_full = np.empty((h, w), dtype=np.int64)
    provenance = np.empty(grid.shape, dtype=np.int64)
    for (i, j), sl in grid.slices():
        idx, frame = stack.frame_for_gain(float(gains[i, j]))
        digits[sl] = frame.digits[sl]
        sat[sl] = frame.saturation_mask[sl]
        bin_full[sl] = frame.bin_factor[sl]
        provenance[i, j] = idx
    raw = RawCapture(digits=digits, gain=grid.expand(gains),
                     bin_factor=bin_full, saturation_mask=sat,
                     meta={"composed_from": list(map(float, stack.gains)),
                           "roi_size": grid.size if per_roi else None})
    return raw, provenance
