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

An analog (additive or average) superpixel is read through the output chain
of its top-left unit pixel, so its one post-amp draw is that pixel's
post-amp normal: ``n_post[::k, ::k]`` on the superpixel grid.  In one
capture every pixel belongs to one readout, and the unit digits of an
analog-binned ROI are overwritten, so each normal enters at most one output
readout: a capture's variances and independence are those that a fresh
draw per superpixel would give.

Reproducibility: one seed is one noise realization.  Every planned capture
goes through one kernel, ``read_blocks``, which digitizes the blocks of a
selection of ROIs of a ``sensor.draw_noise`` realization under one
``sensor.Plan`` (``fit_plan`` makes it of a gain plan and a bin plan):
``read_plan`` runs it over every ROI into a frame, and ``evaluate`` over
each chunk of ROIs it scores.  The realization is independent of the plan:
it holds only unit-pixel draws, drawn in bands of 16 rows, band b from
child b of ``SeedSequence(seed).spawn``, and within a band in a fixed order
(photons, pre-amp normals, post-amp normals).  Which thread draws a band
changes no value.  Captures of the same scene with the same seed but
different plans therefore share their physical noise realization: a scalar
gain and a grid of that gain give the same digits, and the evaluation
protocol draws one realization and reads it out under each method's plan.
The per-pixel adaptive loop (``gain.capture_adaptive``) reads the same draws
through its own sequential recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .gain import GainMap
from .roi import RoiGrid
from .sensor import (BIN_LADDER, PhotonEstimate, Plan, RadianceMap,
                     RawCapture, Realization, SensorConfig,
                     _adc_in_place, estimate_photons, is_bin_factor,
                     is_json_int, roi_ladder, simulate_capture)
from .theory import TheoryParams, cutoff_frequencies, ladder_bin_factors


@dataclass(frozen=True)
class BinMap:
    """A bin plan file: per-ROI bin factors N in {1, 4, 16, 64} and one
    binning mode, the bins of a ``Plan`` (and held to its check)."""

    roi_size: int
    factors: np.ndarray
    mode: str = "additive"

    def __post_init__(self):
        plan = Plan(self.roi_size, np.ones(np.shape(self.factors)),
                    self.factors, self.mode)
        object.__setattr__(self, "factors", plan.bins)

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
        try:
            # the file holds linear factors k; N = k * |k| keeps a negative k
            # off the ladder
            return cls(roi_size=roi_size, factors=ks * np.abs(ks), mode=mode)
        except ConfigError as exc:
            raise DataError(f"bad bin plan: {exc}") from exc


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
        if len({f.plan.mode for f in self.frames}) > 1:
            raise DataError("stack frames must share one binning mode")

    def frame_for_gain(self, gain: float) -> tuple[int, RawCapture]:
        for i, g in enumerate(self.gains):
            if abs(g - gain) <= 1e-9 * max(abs(g), 1.0):
                return i, self.frames[i]
        raise DataError(
            f"gain {gain} missing from stack {list(self.gains)}; quantize the "
            "plan to the stack's gain ladder first")


def fit_plan(gain_map, bin_map, shape) -> Plan:
    """The ``Plan`` on a frame of ``shape`` of ``gain_map``, a ``GainMap``
    or a number read as the constant plan of that gain, and ``bin_map``, a
    ``BinMap`` on the same ROI grid or None for unit pixels.  A constant
    gain plan takes the bin plan's grid, or else the 1 x 1 grid at
    ``roi_size = max(shape)``.  ShapeError unless the plans' grids agree and
    cover the frame."""
    if not isinstance(gain_map, GainMap):
        gain_map = GainMap("constant", gain_map)
    size = {"per_roi": gain_map.roi_size, "per_pixel": 1}.get(gain_map.mode)
    if bin_map is not None:
        if size not in (None, bin_map.roi_size):
            raise ShapeError(f"a gain plan on {size}-pixel ROIs does not "
                             f"fit {bin_map.roi_size}-pixel ROIs")
        size = bin_map.roi_size
    grid = RoiGrid(*shape, max(shape) if size is None else size)
    gains = (gain_map.values if gain_map.values.ndim
             else np.full(grid.shape, float(gain_map.values)))
    bins, mode = ((np.ones(gains.shape, np.int64), "digital")
                  if bin_map is None else (bin_map.factors, bin_map.mode))
    plan = Plan(grid.size, gains, bins, mode)
    plan.grid(*shape)
    return plan


def bin_capture(scene: RadianceMap, gain: float, factor: int, mode: str,
                config: SensorConfig, seed: int = 0) -> RawCapture:
    """Capture the whole scene under one gain and one bin factor, returning
    the reduced-resolution superpixel image.  Its digits are those of a
    uniform ``BinMap`` capture at the same seed, subsampled ``[::k, ::k]``,
    and its plan is that capture's constant plan at factor 1 on the
    superpixel image, whose pixels are the superpixels."""
    if not (is_json_int(factor) and is_bin_factor(factor)):
        raise ConfigError(f"bin factor must be a square of {BIN_LADDER}")
    k = math.isqrt(factor)
    if scene.height % k or scene.width % k:
        raise ShapeError("scene dimensions must be divisible by the bin factor")
    bins = BinMap(max(scene.data.shape), np.full((1, 1), factor), mode)
    full = simulate_capture(scene, float(gain), bins, config, seed)
    return replace(full, digits=full.digits[::k, ::k],
                   saturation_mask=full.saturation_mask[::k, ::k],
                   plan=replace(full.plan, roi_size=max(scene.data.shape) // k,
                                bins=[[1]]))


def capture_spatially_varying(scene: RadianceMap, gain_map, bin_map: BinMap,
                              config: SensorConfig, seed: int = 0
                              ) -> tuple[RawCapture, PhotonEstimate]:
    """Capture with per-ROI gain and bin factor, and its photon estimate.

    The returned capture and estimate are at unit resolution with each
    superpixel's value replicated over its footprint (the nearest-neighbor
    upsampled view); an ROI binned at k reads at native resolution, one
    value per superpixel, when sampled ``[::k, ::k]``.
    """
    raw = simulate_capture(scene, gain_map, bin_map, config, seed)
    return raw, estimate_photons(raw, config)


def read_blocks(noise: Realization, plan: Plan, config: SensorConfig,
                grid: RoiGrid, rs: slice, cs: slice, shape, at):
    """The capture kernel: the digits and saturation mask, as two (ROIs,
    h, w) stacks, of the ROIs ``at`` (row and column indices within the
    ``grid.parts()`` group ``rs`` x ``cs`` of blocks ``shape`` = (h, w)) of
    a ``draw_noise`` realization, read under a ``Plan`` on ``grid`` that
    ``Plan.check_gains`` has held to the gain range.

    A pixel with factor N = k * k belongs to the k x k superpixel that
    starts at a multiple of k in both axes; every k divides the ROI size,
    so gain and factor are constant over each superpixel.  Superpixels cut
    by the frame edge are padded by edge replication.  An additive or
    average superpixel takes its one post-amp draw from its top-left unit
    pixel, ``noise.n_post[::k, ::k]``.  Each factor is read
    on the blocks that carry it, over their unit-pixel readout, and its
    value replicated over each superpixel's footprint.
    """
    bh, bw = shape

    def gather(arr, k=1, sel=slice(None)):
        # the blocks of the ROIs at[sel], at one pixel per k x k superpixel
        return grid.blocks(arr, rs, cs, (-(-bh // k), -(-bw // k)),
                           k)[at[0][sel], at[1][sel]]

    gains, bins = plan.gains[rs, cs][at], plan.bins[rs, cs][at]
    v = gather(noise.charge)
    v *= gains[:, None, None]
    v += gather(noise.n_post)
    digits = _adc_in_place(v, config).astype(np.uint16)
    sat = digits == config.digital_max
    for n in np.unique(bins[bins > 1]).tolist():
        k = math.isqrt(n)
        sel = np.flatnonzero(bins == n)

        def superpixels(blocks, reduce):
            # reduce each k x k superpixel of the selected blocks, those cut
            # by the frame edge padded by edge replication
            if bh % k or bw % k:
                blocks = np.pad(blocks, ((0, 0), (0, -bh % k), (0, -bw % k)),
                                mode="edge")
            m, sh, sw = blocks.shape
            return reduce(blocks.reshape(m, sh // k, k, sw // k, k),
                          axis=(2, 4))

        if plan.mode == "digital":
            # integer sums of digits, any clipped unit pixel
            d_sup = np.rint(superpixels(digits[sel], np.sum) / n
                            ).astype(np.uint16)
            sat_sup = superpixels(sat[sel], np.any)
        else:
            g = gains[sel, None, None]
            post = gather(noise.n_post[::k, ::k], k, sel)
            summed = superpixels(gather(noise.charge, 1, sel), np.sum)
            if plan.mode == "additive":
                # shared sense node holds at most N wells' worth of charge
                summed = np.minimum(summed, n * config.well_capacity)
                v = (g / n) * summed + post
            else:
                v = g * (summed / n) + post
            d_sup = _adc_in_place(v, config).astype(np.uint16)
            sat_sup = d_sup == config.digital_max
        for out, sup in ((digits, d_sup), (sat, sat_sup)):
            out[sel] = np.repeat(np.repeat(sup, k, axis=1), k,
                                 axis=2)[:, :bh, :bw]
    return digits, sat


def read_plan(noise: Realization, plan: Plan,
              config: SensorConfig) -> RawCapture:
    """Digitize a ``draw_noise`` realization under a ``Plan``, held first
    to the configured gain range: ``read_blocks`` over every ROI, written
    into one frame.  The capture carries the plan it was read under."""
    grid = plan.grid(*noise.charge.shape)
    plan.check_gains(config)
    digits = np.empty(noise.charge.shape, np.uint16)
    sat = np.empty(digits.shape, bool)
    for rs, cs, shape in grid.parts():
        at = np.nonzero(np.ones((rs.stop - rs.start, cs.stop - cs.start),
                                bool))
        for out, blocks in zip((digits, sat), read_blocks(
                noise, plan, config, grid, rs, cs, shape, at)):
            grid.blocks(out, rs, cs, shape)[at] = blocks
    return RawCapture(digits=digits, saturation_mask=sat, plan=plan,
                      seed=noise.seed)


def plan_bin_roi(snapshot: PhotonEstimate, roi_size: int, mode: str,
                 config: SensorConfig, snr_t: float, gain: float) -> BinMap:
    """Per-ROI bin plan from a pilot estimate.

    Each ROI's mean valid level (negative estimates count as 0), as a photon
    density over the unit pitch, gets the bin factor of its exact optimal
    pitch (``theory.cutoff_frequencies``, all ROIs at once) at ``gain`` and
    ``snr_t`` among ``pixel_pitch * k`` for the k of ``BIN_LADDER`` that
    divide ``roi_size`` (``roi_ladder``).  Dark ROIs, ROIs without a valid
    pixel and ROIs where no pitch resolves anything get the largest of those
    factors.
    """
    ladder = roi_ladder(roi_size)
    params = TheoryParams(snr_t=snr_t, pitch_candidates=tuple(
        config.pixel_pitch * k for k in ladder))
    valid = snapshot.validity_mask
    grid = RoiGrid(*valid.shape, roi_size)
    total = grid.reduce(np.clip(snapshot.data, 0.0, None, where=valid,
                                out=np.zeros(valid.shape)), np.sum)
    count = grid.reduce(valid, np.sum)
    density = np.divide(total, count, out=np.zeros(grid.shape),
                        where=count > 0) / config.pixel_pitch ** 2
    lit = density > 0
    factors = np.full(grid.shape, ladder[-1] ** 2, dtype=np.int64)
    factors[lit] = ladder_bin_factors(cutoff_frequencies(
        density[lit], params.pitch_candidates, gain, params.snr_t, config),
        ladder)
    return BinMap(roi_size=roi_size, factors=factors, mode=mode)


def compose_from_gain_stack(stack: GainStack, gain_map
                            ) -> tuple[RawCapture, np.ndarray]:
    """Assemble a spatially-varying capture by copying each ROI's digits,
    mask and bin factor from the stack frame whose gain matches the gain
    plan: one masked copy per frame and array, over the pixels of the ROIs
    that frame supplies.

    Every planned gain must exist in the stack (quantize the plan onto the
    stack's gains first, snapping downward), and its frame must bin each ROI
    alike, by a factor whose side divides the ROI size.  Each ROI has the
    noise statistics of a direct capture; when every frame was captured at
    one seed, the composite is the direct capture at that seed, byte for
    byte.  Also returns the provenance.
    """
    h, w = stack.frames[0].digits.shape
    plan = fit_plan(gain_map, None, (h, w))
    grid = plan.grid(h, w)
    planned, which = np.unique(plan.gains, return_inverse=True)
    provenance = np.array([stack.frame_for_gain(g)[0] for g in
                           planned.tolist()])[which.reshape(grid.shape)]

    digits = np.empty((h, w), dtype=np.uint16)
    sat = np.empty((h, w), dtype=bool)
    factor = np.empty((h, w), dtype=np.uint8)  # bin factors are at most 64
    source = grid.expand(provenance)
    for idx in np.unique(provenance).tolist():
        frame, where = stack.frames[idx], source == idx
        for out, src in ((digits, frame.digits), (sat, frame.saturation_mask),
                         (factor, frame.plan.grid(h, w).expand(
                             frame.plan.bins.astype(np.uint8)))):
            # cast as assignment casts: a frame's digits may be any dtype
            np.copyto(out, src, casting="unsafe", where=where)
    bins = factor[::grid.size, ::grid.size]
    uneven = grid.reduce(factor != grid.expand(bins), np.any)
    if uneven.any():
        i, j = np.argwhere(uneven)[0].tolist()
        raise DataError(f"stack frame {provenance[i, j]} is binned unevenly "
                        f"over ROI ({i}, {j}) of the composite")
    try:
        plan = replace(plan, bins=bins, mode=stack.frames[0].plan.mode)
    except ConfigError as exc:
        raise DataError(f"the stack's bin factors: {exc}") from exc
    raw = RawCapture(digits=digits, saturation_mask=sat, plan=plan,
                     meta={"composed_from": list(map(float, stack.gains))})
    return raw, provenance
