"""Image quality metrics and the four-method evaluation protocol.

Protocol (per scene and seed): capture a constant-gain pilot, plan gain and
bin maps from it, then run the four readout strategies

    const_gain_no_bin    one global gain protecting the brightest pixel
    vary_gain_no_bin     per-ROI gains from the pilot
    const_gain_vary_bin  base gain, per-ROI additive binning
    vary_gain_vary_bin   per-ROI gains plus per-ROI digital binning

on the same scene with the same seed.  The main seed's noise realization is
drawn once and read out under each of the four plans, so methods are
compared on identical photon arrivals and the comparison is paired:
strategies that coincide on an ROI produce identical pixels there, so such
an ROI is read out and scored once.
Estimates are normalized by well capacity, gamma corrected, and scored with
SSIM per ROI against the noise-free ground truth.  SSIM's Gaussian window
is two banded matrix products per block, one per axis, taken by BLAS: its
values are scipy's ``gaussian_filter`` to rounding, not bit for bit, and
the same bits however a block is laid out.  Every stage after the
noise draw is local to one ROI, so one loop over chunks of same-shape ROI
blocks does them all, the calling thread taking every other chunk and one
helper thread the rest: per chunk, the ground truth's blocks are tonemapped
and their blur statistics taken once, each method's blocks are read out
(``readout.read_blocks``), estimated, tonemapped and scored at unit
resolution, except those that an earlier method read out alike (the same
gain and bin factor, and binning mode when binned), whose scores are
copied, and every method's ROIs binned at one factor are scored together
at native resolution.  No per-method frame is built for scoring.  Reports
aggregate the worst-case ROI (the number that exposes how the darkest or
most damaged region fared) alongside the mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .gain import _check_eta, _check_roi_size, plan_gain_roi
from .readout import fit_plan, plan_bin_roi, read_blocks, read_plan
from .roi import RoiGrid
from .sensor import (Plan, RadianceMap, SensorConfig, _by_turns, _check_seed,
                     _helper_thread, dequantize, draw_noise, estimate_photons,
                     roi_ladder)
from .theory import TheoryParams

METHODS = ("const_gain_no_bin", "vary_gain_no_bin",
           "const_gain_vary_bin", "vary_gain_vary_bin")


def _gaussian_weights(sigma: float, truncate: float = 4.0) -> np.ndarray:
    """scipy's Gaussian kernel, computed as scipy computes it: exp(-x**2 /
    (2 sigma**2)) for |x| <= int(truncate * sigma + 0.5), normalized."""
    r = int(truncate * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    return phi / phi.sum()


# 11-tap SSIM window: radius 5 at sigma 1.5, truncate 10/3
_SSIM_WEIGHTS = _gaussian_weights(1.5, 10.0 / 3.0)
_SSIM_RADIUS = len(_SSIM_WEIGHTS) // 2
# Most outputs of one band product along an axis: a longer axis goes in
# tiles, so that each output costs at most _TILE + 2r multiply-adds however
# long the axis (a 2048 x 2048 image, on one thread of a 2-core x86-64 host,
# took 458 ms as one band per axis and 66 ms in tiles of 64)
_TILE = 64
# Most ROI pixels per chunk of evaluate's loop, which reads them out under
# every plan and scores them: about a dozen float64 arrays of this size per
# thread, at any frame size.  Chunks are as large as that allows: with both
# threads running, every numpy call hands the GIL over, so the helper
# thread pays only where the calls are few and large.  2**17 was faster
# still, but a 512 x 512 evaluate then peaked above 9 frames of traced
# memory.
_SSIM_CHUNK_PIXELS = 1 << 16


def gamma_correct(image: np.ndarray, exponent: float) -> np.ndarray:
    """Power-law tonemap: image ** exponent, clipped to [0, 1]."""
    if exponent <= 0:
        raise ConfigError("gamma exponent must be positive")
    return _gamma_in_place(np.array(image, dtype=np.float64), exponent)


def _gamma_in_place(x: np.ndarray, exponent: float) -> np.ndarray:
    """``gamma_correct`` over the float64 array ``x``, written into it."""
    np.maximum(x, 0.0, out=x)
    x **= exponent
    return np.minimum(x, 1.0, out=x)


def _tonemap(photons: np.ndarray, config: SensorConfig) -> np.ndarray:
    """The protocol's rendering, written into the float64 array
    ``photons``: photons over well capacity, gamma 1/3.2."""
    photons /= config.well_capacity
    return _gamma_in_place(photons, 1.0 / 3.2)


def _blur(stack: np.ndarray, crop: int) -> np.ndarray:
    """The SSIM window over each block of an (n, h, w) stack, each block
    with its own reflect boundary, cropped by ``crop`` pixels on every
    side: per block, ``Kv @ block @ Kh.T``, where ``Kv`` and ``Kh`` are
    the window's banded matrices (``_band``) for the block's height and
    width, taken by ``np.matmul`` (BLAS).  With ``crop`` equal to the
    window radius r no kept output reads past a block's edge, so each
    product computes only the kept rows or columns; with ``crop`` 0 each
    axis is extended first by ``_reflect``.  An axis of more than
    ``_TILE`` outputs goes in tiles of at most that many.

    Within rounding of scipy's ``gaussian_filter1d`` along axes 1 and 2
    (reflect mode, sigma 1.5, truncate 10/3) and then the crop, but not
    its bits: BLAS sums each output's products in its own order, with
    fused multiply-adds.  Every product's operands are made C-contiguous
    first, so a block's values do not depend on its layout: scored alone
    or at any place in a stack, as a strided view or as a copy."""
    return _window(_window(stack, 1, crop), 2, crop)


def _reflect(n: int, r: int) -> np.ndarray:
    """Indices extending a line of ``n`` samples by ``r`` on each side as
    scipy's ``reflect`` mode (numpy's ``symmetric`` pad) does, repeated
    reflections included: the line continued with period 2n, mirrored."""
    p = np.arange(-r, n + r) % (2 * n)
    return np.where(p < n, p, 2 * n - 1 - p)


@functools.cache
def _band(n: int):
    """The SSIM window over ``n`` samples as an (n - 2r, n) banded matrix,
    row t holding the weights in columns t to t + 2r, and its transpose,
    both C-contiguous and read-only."""
    m = n - 2 * _SSIM_RADIUS
    band = np.zeros((m, n))
    rows = np.arange(m)[:, None]
    band[rows, rows + np.arange(len(_SSIM_WEIGHTS))] = _SSIM_WEIGHTS
    pair = band, band.T.copy()
    for k in pair:
        k.flags.writeable = False
    return pair


def _window(x: np.ndarray, axis: int, crop: int) -> np.ndarray:
    """One pass of ``_blur`` along ``axis`` of a 3-D ``x``."""
    r = _SSIM_RADIUS
    if crop == 0:
        x = np.take(x, _reflect(x.shape[axis], r), axis=axis)
    m = x.shape[axis] - 2 * r  # outputs kept; output t is centred on x[t + r]
    tiles = []
    for t in range(0, m, _TILE):
        n = min(_TILE, m - t) + 2 * r  # the tile's inputs
        band, band_t = _band(n)
        if axis == 1:
            tiles.append(band @ np.ascontiguousarray(x[:, t:t + n]))
        else:
            tiles.append(np.ascontiguousarray(x[:, :, t:t + n]) @ band_t)
    return tiles[0] if len(tiles) == 1 else np.concatenate(tiles, axis)


def _crop(shape) -> int:
    """The window margin that SSIM leaves out of the blocks' mean: the
    window radius when the blocks' smaller side exceeds twice that."""
    return _SSIM_RADIUS if min(shape[-2:]) > 2 * _SSIM_RADIUS else 0


def _reference_stats(a: np.ndarray):
    """Local mean and variance of an (n, h, w) stack of reference blocks,
    on the interior that ``ssim`` averages."""
    crop = _crop(a.shape)
    mu_a = _blur(a, crop)
    return mu_a, _blur(a * a, crop) - mu_a * mu_a


def ssim(ref: np.ndarray, test: np.ndarray, ref_stats=None):
    """Structural similarity on unit-range images.

    Gaussian-weighted local statistics (11x11, sigma 1.5, taken by
    ``_blur`` as banded matrix products, so within rounding of scipy's
    window but not its bits) with the standard stabilizers C1 = 0.01^2 and
    C2 = 0.03^2.  ``ref`` and ``test`` are two
    images, or two (n, h, w) stacks of same-shape blocks scored block by
    block, each with its own reflect boundary.  The map covers the interior
    only: the window margins are cropped when a block's smaller side
    exceeds twice the window radius, and nothing is computed for them.
    Returns the map it averages and its mean: a map and a float for images,
    a stack of maps and one value per block for stacks.  ``ref_stats`` may
    hold the reference stack's ``_reference_stats`` from an earlier call,
    which then need not be blurred again.
    """
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    if a.shape != b.shape or a.ndim not in (2, 3):
        raise ShapeError("SSIM inputs must be two images or two block stacks "
                         "of one shape")
    image = a.ndim == 2
    if image:
        a, b = a[None], b[None]
    mu_a, var_a = _reference_stats(a) if ref_stats is None else ref_stats
    c1, c2, crop = 0.01 ** 2, 0.03 ** 2, _crop(a.shape)
    mu_b = _blur(b, crop)
    mu_bb, mu_ab = mu_b * mu_b, mu_a * mu_b
    var_b = _blur(b * b, crop)
    var_b -= mu_bb
    cov = _blur(a * b, crop)
    cov -= mu_ab
    # ((2 mu_a mu_b + c1) (2 cov + c2)) / ((mu_a^2 + mu_b^2 + c1)
    # (var_a + var_b + c2)), each step rounding as written out; doubling is
    # exact, so 2 (mu_a mu_b) is (2 mu_a) mu_b
    smap = mu_ab
    smap *= 2
    smap += c1
    cov *= 2
    cov += c2
    smap *= cov
    mu_bb += mu_a * mu_a
    mu_bb += c1
    var_b += var_a
    var_b += c2
    mu_bb *= var_b
    smap /= mu_bb
    means = smap.mean(axis=(1, 2))
    return (smap[0], float(means[0])) if image else (smap, means)


def _share(helper, grid: RoiGrid, work) -> None:
    """Call ``work(rs, cs, shape, at)`` for each chunk of ``grid``: per
    same-shape group ``rs`` x ``cs`` of ``grid.parts()``, ``at`` the ROI row
    and column indices within it of at most ``_SSIM_CHUNK_PIXELS`` pixels'
    worth of ROIs (one ROI at least), in two chunks at least where the
    group has two ROIs or more, so that both threads have work on any
    frame.  The chunks are listed once and split by turns
    (``sensor._by_turns``): one task on the executor ``helper`` takes the
    odd ones while this thread takes the even ones, and each chunk writes
    only its own ROIs."""
    chunks = []
    for rs, cs, shape in grid.parts():
        ii, jj = np.nonzero(np.ones((rs.stop - rs.start, cs.stop - cs.start),
                                    bool))
        # a chunk at least for this thread and one for the helper
        step = max(1, min(_SSIM_CHUNK_PIXELS // math.prod(shape),
                          -(-ii.size // 2)))
        chunks += [(rs, cs, shape, (ii[s:s + step], jj[s:s + step]))
                   for s in range(0, ii.size, step)]
    _by_turns(helper, chunks, work)


def _decibels(mse: float) -> float:
    return math.inf if mse == 0 else -10.0 * math.log10(mse)


def psnr(ref: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio on unit-range images, in dB."""
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError("PSNR inputs must share dimensions")
    return _decibels(float(np.mean((a - b) ** 2)))


@dataclass
class MethodScores:
    worst_ssim: float
    mean_ssim: float
    worst_psnr: float
    worst_ssim_native: float
    ssim_grid: np.ndarray


@dataclass
class EvalReport:
    scene_shape: tuple
    roi_size: int
    seed: int
    scores: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "scene_shape": list(self.scene_shape),
            "roi_size": self.roi_size,
            "seed": self.seed,
            "methods": {k: {**asdict(v), "ssim_grid": v.ssim_grid.tolist()}
                        for k, v in self.scores.items()},
        }

    def csv_rows(self) -> list[str]:
        rows = ["method,worst_ssim,mean_ssim,worst_psnr,worst_ssim_native"]
        for name in METHODS:
            if name not in self.scores:
                continue
            s = self.scores[name]
            rows.append(f"{name},{s.worst_ssim:.6f},{s.mean_ssim:.6f},"
                        f"{s.worst_psnr:.4f},{s.worst_ssim_native:.6f}")
        return rows


def _block_means(data: np.ndarray, ks) -> dict:
    """The k x k block means of the frame ``data`` over the blocks it holds
    whole, one array per k of ``ks``: taken over the whole frame, as a
    block stack's mean adds in another order and differs in the last
    bits."""
    h, w = data.shape
    return {k: data[:h // k * k, :w // k * k].reshape(
        h // k, k, w // k, k).mean(axis=(1, 3)) for k in ks}


def _score_plans(scene: RadianceMap, noise, grid: RoiGrid, plans: dict,
                 config: SensorConfig, helper, means: dict) -> dict:
    """Per-ROI SSIM, MSE and native SSIM, as one (3, ROI rows, ROI columns)
    array per name, of each ``Plan`` of ``plans`` on the ROI grid ``grid``,
    read out from the realization ``noise`` of ``scene``.

    Per chunk of ``_share``, which this thread and one task on the executor
    ``helper`` take by turns, the ground truth's blocks are tonemapped and
    their blur statistics taken once; each plan's blocks are then read out,
    estimated as ``dequantize(digits) / gain``, tonemapped and scored.  An
    ROI that an earlier plan reads out alike (the same gain and bin factor
    N and, for N > 1, the same mode: ``read_blocks`` reads N = 1 alike in
    every mode) has the same pixels under both, so it is not read out
    again: its three scores are copied from the first plan that read it.
    An ROI binned at k whose blocks k tiles is also scored at native
    resolution, one pixel per superpixel, against the tonemapped k x k
    block means of the ground truth (``means``, a dict of ``_block_means``
    by k); elsewhere its native SSIM is its SSIM.
    The native ground truth and its statistics are taken once per chunk
    and factor, and one SSIM call scores every plan's ROIs binned at that
    factor: each block is scored on its own, so stacking them changes no
    value and saves numpy calls, each of which costs a GIL hand-off.
    """
    for plan in plans.values():
        plan.check_gains(config)
    scores = {name: np.full((3, *grid.shape), np.nan) for name in plans}
    # per plan, the index of the first plan before it that reads each ROI
    # alike, or -1
    names = list(plans)
    source = {}
    for i, (name, plan) in enumerate(plans.items()):
        source[name] = first = np.full(grid.shape, -1)
        for j in reversed(range(i)):
            other = plans[names[j]]
            alike = (other.gains == plan.gains) & (other.bins == plan.bins)
            if other.mode != plan.mode:
                alike &= plan.bins == 1
            first[alike] = j

    def score(rs, cs, shape, at):
        bh, bw = shape
        views = {}  # k: the chunk's native ground truth and its statistics
        for plan in plans.values():
            for n in np.unique(plan.bins[rs, cs][at]).tolist():
                k = math.isqrt(n)
                if k > 1 and k not in views and not (bh % k or bw % k):
                    ref_k = _tonemap(grid.blocks(
                        means[k], rs, cs, (bh // k, bw // k), k)[at], config)
                    views[k] = ref_k, _reference_stats(ref_k)
        ref = _tonemap(grid.blocks(scene.data, rs, cs, shape)[at], config)
        stats = _reference_stats(ref)
        binned = {k: [] for k in views}  # k: (plan name, ROIs, their blocks)
        firsts = {name: source[name][rs, cs][at] for name in plans}
        for name, plan in plans.items():
            new = np.flatnonzero(firsts[name] < 0)  # the ROIs read here
            if new.size == at[0].size:
                own, ref_new, stats_new = at, ref, stats
            elif new.size:
                own = at[0][new], at[1][new]
                ref_new, stats_new = ref[new], (stats[0][new], stats[1][new])
            else:
                continue
            digits, _ = read_blocks(noise, plan, config, grid, rs, cs, shape,
                                    own)
            img = dequantize(digits, config)
            img /= plan.gains[rs, cs][own][:, None, None]
            _tonemap(img, config)
            ssims = ssim(ref_new, img, stats_new)[1]
            mse = ((ref_new - img) ** 2).mean(axis=(1, 2))
            del ref_new, stats_new
            bins = plan.bins[rs, cs][own]
            for k, found in binned.items():
                sel = np.flatnonzero(bins == k * k)
                if sel.size:
                    found.append((name, new[sel], img[sel, ::k, ::k]))
            scores[name][:, rs, cs][:, own[0], own[1]] = ssims, mse, ssims
        # native resolution: one stack per factor k of every plan's ROIs
        # binned at k
        for k, found in binned.items():
            ref_k, (mu, var) = views[k]
            sel = np.concatenate([s for _, s, _ in found])
            out = ssim(ref_k[sel], np.concatenate([b for *_, b in found]),
                       (mu[sel], var[sel]))[1]
            for name, s, _ in found:
                scores[name][2, rs, cs][at[0][s], at[1][s]] = out[:s.size]
                out = out[s.size:]
        # the ROIs read out alike before: the first reader's rows
        for name, first in firsts.items():
            for j in np.unique(first[first >= 0]).tolist():
                copied = at[0][first == j], at[1][first == j]
                scores[name][:, rs, cs][:, copied[0], copied[1]] = scores[
                    names[j]][:, rs, cs][:, copied[0], copied[1]]

    _share(helper, grid, score)
    return scores


def evaluate_protocol(scene: RadianceMap, config: SensorConfig,
                      roi_size: int = 128, methods=METHODS, seed: int = 0,
                      eta: float = 2.0, snr_t: float = 4.0,
                      dump_dir=None) -> EvalReport:
    """Run the requested method pipelines on one scene and score them.

    ``dump_dir``, when given, receives 16-bit PGM renderings of each
    method's gamma-corrected output plus the ground truth, for visual
    inspection, made after scoring: each plan's capture of the main
    realization (``readout.read_plan``), estimated and tonemapped as the
    scored blocks are.  The call owns one helper thread: it draws the main
    realization and then takes the ground truth's k x k block means for
    every k > 1 of the ROI size's ladder, which the native scores of binned
    ROIs compare with, while this thread draws and captures the pilot and
    plans from it (each draw takes all its bands on its own thread, which
    beat splitting both between the two); it then takes every other ROI
    chunk.  The main realization holds only unit-pixel draws
    (``sensor.draw_noise``), so it is the same whichever ``methods`` are
    requested.
    ConfigError, before anything is drawn, unless ``seed`` is a
    nonnegative integer.
    """
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {sorted(unknown)}")
    # the seed's and the planners' checks, made before any draw starts
    _check_seed(seed)
    _check_roi_size(roi_size)
    _check_eta(eta)
    TheoryParams(snr_t=snr_t)
    pilot_seed, main_seed = [int(s.generate_state(1)[0])
                             for s in np.random.SeedSequence(seed).spawn(2)]
    with _helper_thread() as helper:
        # one realization for all methods, drawn before the plans are made,
        # and the block means that binned ROIs' native scores compare with
        drawn = helper.submit(lambda: (
            draw_noise(scene, config, main_seed),
            _block_means(scene.data, roi_ladder(roi_size)[1:])))
        pilot = estimate_photons(read_plan(
            draw_noise(scene, config, pilot_seed),
            fit_plan(1.0, None, scene.data.shape), config), config)
        gmap, _ = plan_gain_roi(pilot, roi_size, eta, config)
        # the constant gain protects the brightest pixel: one ROI over the
        # frame
        whole, _ = plan_gain_roi(
            pilot, max(scene.height, scene.width, roi_size), eta, config)
        g_base = float(whole.values[0, 0])

        # bin plan from the pilot at unit gain, per-ROI mean level
        factors = plan_bin_roi(pilot, roi_size, "additive", config, snr_t,
                               1.0).factors
        del pilot

        base_grid = np.full(factors.shape, g_base)
        ones = np.ones_like(factors)
        plans = {
            "const_gain_no_bin": Plan(roi_size, base_grid, ones, "digital"),
            "vary_gain_no_bin": Plan(roi_size, gmap.values, ones, "digital"),
            "const_gain_vary_bin": Plan(roi_size, base_grid * factors,
                                        factors, "additive"),
            "vary_gain_vary_bin": Plan(roi_size, gmap.values, factors,
                                       "digital"),
        }

        if dump_dir is not None:
            from pathlib import Path
            from .fileio import file_errors, write_pgm16
            dump_dir = Path(dump_dir)
            with file_errors(dump_dir, "write"):
                dump_dir.mkdir(parents=True, exist_ok=True)
        plans = {name: plans[name] for name in methods}
        noise, means = drawn.result()
        scores = _score_plans(scene, noise,
                              RoiGrid(scene.height, scene.width, roi_size),
                              plans, config, helper, means)
    if dump_dir is not None:
        def render(name, photons):
            write_pgm16(dump_dir / f"{name}.pgm",
                        np.rint(_tonemap(photons.copy(), config) * 65535))

        render("ground_truth", scene.data)
        for name, plan in plans.items():
            render(name, estimate_photons(read_plan(noise, plan, config),
                                          config).data)
    return EvalReport(scene_shape=scene.data.shape, roi_size=roi_size,
                      seed=seed, scores={name: MethodScores(
                          worst_ssim=float(ssims.min()),
                          mean_ssim=float(ssims.mean()),
                          worst_psnr=min(map(_decibels, mse.ravel().tolist())),
                          worst_ssim_native=float(native.min()),
                          ssim_grid=ssims)
                          for name, (ssims, mse, native) in scores.items()})
