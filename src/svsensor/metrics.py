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
strategies that coincide on an ROI produce identical pixels there.
Estimates are normalized by well capacity, gamma corrected, and scored with
SSIM per ROI against the noise-free ground truth.  The ROIs are scored in
stacks of same-shape blocks, and the ground truth's blur statistics are
computed once per scene and view and shared by the four methods.  Reports
aggregate the worst-case ROI (the number that exposes how the darkest or
most damaged region fared) alongside the mean.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .gain import _check_eta, _check_roi_size, plan_gain_roi
from .readout import native_estimate_blocks, plan_bin_roi, read_plan
from .roi import RoiGrid
from .sensor import (Plan, RadianceMap, SensorConfig, draw_noise,
                     estimate_photons, roi_ladder, simulate_capture)
from .theory import TheoryParams

METHODS = ("const_gain_no_bin", "vary_gain_no_bin",
           "const_gain_vary_bin", "vary_gain_vary_bin")

# 11-tap Gaussian window: radius 5 at sigma 1.5, weighted as scipy's
# gaussian_filter1d weights it at truncate 10/3
_SSIM_RADIUS = 5
_SSIM_WEIGHTS = np.exp(-0.5 / 1.5 ** 2
                       * np.arange(-_SSIM_RADIUS, _SSIM_RADIUS + 1) ** 2)
_SSIM_WEIGHTS /= _SSIM_WEIGHTS.sum()
# ROI pixels the stacked SSIM blurs at once: its working set is about a
# dozen float64 arrays of this size at any frame size, and evaluate's two
# threads each hold one chunk.  On a 2-core x86 host with both threads,
# 2**15 timed fastest at 512x512 (roi 32); 2**14 was about 20% slower, and
# 2**16 and 2**17 added 2 and 9 MB to its peak RSS.  At 2048x2048 (roi 128)
# 2**16 was about 10% faster than 2**15.
_SSIM_CHUNK_PIXELS = 1 << 15


def gamma_correct(image: np.ndarray, exponent: float) -> np.ndarray:
    """Power-law tonemap: image ** exponent, clipped to [0, 1]."""
    if exponent <= 0:
        raise ConfigError("gamma exponent must be positive")
    return _gamma_in_place(np.array(image, dtype=np.float64), exponent)


def _gamma_in_place(x: np.ndarray, exponent: float) -> np.ndarray:
    """``gamma_correct`` over the float64 array ``x``, written into it."""
    np.clip(x, 0.0, None, out=x)
    x **= exponent
    return np.clip(x, 0.0, 1.0, out=x)


def _tonemap(photons: np.ndarray, config: SensorConfig) -> np.ndarray:
    """The protocol's rendering: photons over well capacity, gamma 1/3.2."""
    return _gamma_in_place(photons / config.well_capacity, 1.0 / 3.2)


def _blur(stack: np.ndarray, crop: int) -> np.ndarray:
    """The SSIM window over each block of an (n, h, w) stack, each block
    with its own reflect boundary, cropped by ``crop`` pixels on every side.

    Bit for bit scipy's ``gaussian_filter1d`` along axes 1 and 2 (reflect,
    truncate 10/3) then the crop: each output sums ``x[c] * w0`` and then
    ``(x[c - j] + x[c + j]) * wj`` for j = 5 down to 1, the order of scipy's
    symmetric correlation.  With ``crop`` the window radius no kept output
    reads past a block's edge, so the axis-1 pass computes only the kept
    rows and the axis-2 pass only the kept columns; with ``crop`` 0 each
    axis is padded first by numpy's ``symmetric`` mode, which is scipy's
    ``reflect`` even on lines shorter than the radius."""
    return _window(_window(stack, 1, crop), 2, crop)


def _window(x: np.ndarray, axis: int, crop: int) -> np.ndarray:
    """One pass of ``_blur`` along ``axis`` of a 3-D ``x``."""
    r = _SSIM_RADIUS
    if crop == 0:
        pad = [(0, 0)] * 3
        pad[axis] = (r, r)
        x = np.pad(x, pad, mode="symmetric")
    m = x.shape[axis] - 2 * r  # outputs kept; output t is centred on x[t + r]

    def tap(d):
        return x[:, r + d:r + d + m] if axis == 1 else x[:, :, r + d:r + d + m]

    out = tap(0) * _SSIM_WEIGHTS[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(tap(-j), tap(j), out=pair)
        pair *= _SSIM_WEIGHTS[r + j]
        out += pair
    return out


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

    Gaussian-weighted local statistics (11x11, sigma 1.5) with the standard
    stabilizers C1 = 0.01^2 and C2 = 0.03^2.  ``ref`` and ``test`` are two
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
    var_b = _blur(b * b, crop) - mu_b * mu_b
    cov = _blur(a * b, crop) - mu_a * mu_b
    smap = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
           ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    means = smap.mean(axis=(1, 2))
    return (smap[0], float(means[0])) if image else (smap, means)


class RoiScorer:
    """Per-ROI SSIM and mean squared error of test images against one
    reference on the ROI grid ``grid``.

    ``reference(k)`` renders the reference at native view k, one pixel per
    k x k superpixel (k = 1 is the unit view), so that ROI (i, j) starts at
    row ``i * grid.size // k`` and column ``j * grid.size // k``.  A view's
    reference blocks and their blur statistics are computed for every ROI
    the first time the view is scored and reused for every test image;
    the statistics cover the interior that ``ssim`` averages.  Same-shape
    blocks are scored as stacks, ``_SSIM_CHUNK_PIXELS`` pixels at a time,
    and the calling thread and one task on the executor ``helper`` share
    the chunks.  Each chunk does the same float operations whichever thread
    takes it, so the scores do not depend on the helper.
    """

    def __init__(self, grid: RoiGrid, reference, helper):
        self.grid = grid
        self._reference = reference
        self._helper = helper
        self._views = {}

    def _view(self, k: int) -> list:
        """(ROI rows, ROI columns, reference blocks, mu_a, var_a) for each
        same-shape ROI group whose blocks view k tiles."""
        if k not in self._views:
            parts = []
            if self.grid.size % k == 0:
                ref = self._reference(k)
                for rs, cs, (bh, bw) in self.grid.parts():
                    if bh % k or bw % k:
                        continue
                    blocks = self.grid.blocks(ref, rs, cs,
                                              (bh // k, bw // k), k)
                    crop = _crop(blocks.shape)
                    inner = (*blocks.shape[:2], blocks.shape[2] - 2 * crop,
                             blocks.shape[3] - 2 * crop)
                    parts.append((rs, cs, blocks, np.empty(inner),
                                  np.empty(inner)))

            def stats(n, i, j):
                _, _, blocks, mu, var = parts[n]
                mu[i, j], var[i, j] = _reference_stats(blocks[i, j])

            self._share(stats, parts)
            self._views[k] = parts
        return self._views[k]

    def scores(self, test: np.ndarray, k: int = 1, select=None):
        """Per-ROI SSIM and MSE grids of ``test``, an image at view k, on
        the ROIs where the boolean grid ``select`` holds (all by default);
        NaN elsewhere and where k does not tile the ROI."""
        ssims = np.full(self.grid.shape, np.nan)
        mse = np.full(self.grid.shape, np.nan)
        parts = self._view(k)
        tests = [self.grid.blocks(test, rs, cs, ref.shape[2:], k)
                 for rs, cs, ref, _, _ in parts]

        def score(n, i, j):
            rs, cs, ref, mu, var = parts[n]
            a, b = ref[i, j], tests[n][i, j]
            at = (rs.start + i, cs.start + j)
            ssims[at] = ssim(a, b, (mu[i, j], var[i, j]))[1]
            mse[at] = ((a - b) ** 2).mean(axis=(1, 2))

        self._share(score, parts, select)
        return ssims, mse

    def _share(self, work, parts, select=None):
        """Call ``work(n, i, j)`` for each chunk of ``_chunks(parts,
        select)``, on this thread and on a task on the helper, which take
        chunks from one locked iterator; each chunk writes only its own
        ROIs.  Once this thread finds no chunk left, the helper's task is
        cancelled if it has not started and waited for if it has, so a
        helper that is busy elsewhere or descheduled delays the return by
        at most one chunk.  A chunk that raises stops both threads after
        the chunk they hold, and its error is raised here."""
        chunks, lock = _chunks(parts, select), threading.Lock()
        failed = threading.Event()

        def drain():
            while not failed.is_set():
                with lock:
                    chunk = next(chunks, None)
                if chunk is None:
                    return
                try:
                    work(*chunk)
                except BaseException:
                    failed.set()
                    raise

        side = self._helper.submit(drain)
        try:
            drain()
        finally:
            late = None if side.cancel() else side.exception()
        if late is not None:
            raise late


def _chunks(parts, select):
    """Yield (part index n, ROI rows, ROI columns) index arrays of the
    blocks of each (ROI rows, ROI columns, blocks, ...) group ``parts[n]``
    where the boolean ROI grid ``select`` holds (all if None),
    ``_SSIM_CHUNK_PIXELS`` pixels' worth at a time."""
    for n, (rs, cs, blocks, *_) in enumerate(parts):
        ii, jj = np.nonzero(np.ones(blocks.shape[:2], bool) if select is None
                            else select[rs, cs])
        step = max(1, _SSIM_CHUNK_PIXELS // math.prod(blocks.shape[2:]))
        for s in range(0, ii.size, step):
            yield n, ii[s:s + step], jj[s:s + step]


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


def _score_method(scorer: RoiScorer, img: np.ndarray, raw, est,
                  config: SensorConfig) -> MethodScores:
    """Score one method's rendered estimate ``img`` per ROI; binned ROIs are
    also scored at native resolution against the block-mean reference."""
    ssims, mse = scorer.scores(img)
    native = ssims.copy()
    for k, rois, view in native_estimate_blocks(raw, est):
        if k > 1:
            at_k, _ = scorer.scores(_tonemap(view, config), k, rois)
            native = np.where(np.isnan(at_k), native, at_k)
    return MethodScores(worst_ssim=float(ssims.min()),
                        mean_ssim=float(ssims.mean()),
                        worst_psnr=float(np.min([_decibels(m) for m in
                                                 mse.ravel().tolist()])),
                        worst_ssim_native=float(native.min()),
                        ssim_grid=ssims)


def evaluate_protocol(scene: RadianceMap, config: SensorConfig,
                      roi_size: int = 128, methods=METHODS, seed: int = 0,
                      eta: float = 2.0, snr_t: float = 4.0,
                      dump_dir=None) -> EvalReport:
    """Run the requested method pipelines on one scene and score them.

    ``dump_dir``, when given, receives 16-bit PGM renderings of each
    method's gamma-corrected output plus the ground truth, for visual
    inspection.  The call owns one helper thread: it draws the main
    realization while this thread captures the pilot and plans from it,
    and then shares the SSIM chunks.
    """
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {sorted(unknown)}")
    # the planners' checks, made before any draw starts
    _check_roi_size(roi_size)
    _check_eta(eta)
    TheoryParams(snr_t=snr_t)
    # imported here: only evaluate needs it, and it costs every command's
    # start-up about 9 ms
    from concurrent.futures import ThreadPoolExecutor

    pilot_seed, main_seed = [int(s.generate_state(1)[0])
                             for s in np.random.SeedSequence(seed).spawn(2)]
    # one realization for all methods, drawn before the plans are made: to
    # the largest superpixel an additive bin plan at roi_size can use, the
    # only readout here that reads superpixel draws
    max_k = (roi_ladder(roi_size)[-1] if "const_gain_vary_bin" in methods
             else 1)
    with ThreadPoolExecutor(1) as helper:
        drawn = helper.submit(draw_noise, scene, config, main_seed, max_k)
        pilot = estimate_photons(
            simulate_capture(scene, 1.0, None, config, seed=pilot_seed),
            config)
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

        gt_gamma = _tonemap(scene.data, config)

        def reference(k):
            # the ground truth at native view k: the mean of each k x k block
            if k == 1:
                return gt_gamma
            h, w = scene.height // k * k, scene.width // k * k
            return _tonemap(scene.data[:h, :w].reshape(h // k, k, w // k, k)
                            .mean(axis=(1, 3)), config)

        scorer = RoiScorer(RoiGrid(scene.height, scene.width, roi_size),
                           reference, helper)
        report = EvalReport(scene_shape=scene.data.shape, roi_size=roi_size,
                            seed=seed)
        if dump_dir is not None:
            from pathlib import Path
            from .fileio import file_errors, write_pgm16
            dump = Path(dump_dir)
            with file_errors(dump, "write"):
                dump.mkdir(parents=True, exist_ok=True)
            write_pgm16(dump / "ground_truth.pgm",
                        np.rint(gt_gamma * 65535).astype(np.uint16))
        noise = drawn.result()
        for name in methods:
            raw = read_plan(noise, plans[name], config)
            est = estimate_photons(raw, config)
            img = _tonemap(est.data, config)
            report.scores[name] = _score_method(scorer, img, raw, est, config)
            if dump_dir is not None:
                write_pgm16(dump / f"{name}.pgm",
                            np.rint(img * 65535).astype(np.uint16))
            del raw, est, img  # free before the next readout
    return report
