"""Image quality metrics and the four-method evaluation protocol.

Protocol (per scene and seed): capture a constant-gain pilot, plan gain and
bin maps from it, then run the four readout strategies

    const_gain_no_bin    one global gain protecting the brightest pixel
    vary_gain_no_bin     per-ROI gains from the pilot
    const_gain_vary_bin  base gain, per-ROI additive binning
    vary_gain_vary_bin   per-ROI gains plus per-ROI digital binning

on the same scene with the same seed.  One seed is one noise realization
whatever the plan, so methods are compared on identical photon arrivals and
the comparison is paired: strategies that coincide on an ROI produce
identical pixels there.  Estimates are normalized by well capacity, gamma
corrected, and scored with SSIM per ROI against the noise-free ground truth;
reports aggregate the worst-case ROI (the number that exposes how the
darkest or most damaged region fared) alongside the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .gain import GainMap, plan_gain_roi
from .readout import BinMap, capture_spatially_varying, plan_bin_roi
from .roi import RoiGrid
from .sensor import RadianceMap, SensorConfig, estimate_photons, simulate_capture

METHODS = ("const_gain_no_bin", "vary_gain_no_bin",
           "const_gain_vary_bin", "vary_gain_vary_bin")

# 11-tap Gaussian window: radius 5 at sigma 1.5
_SSIM_SIGMA = 1.5
_SSIM_TRUNCATE = 10.0 / 3.0
_SSIM_RADIUS = 5


def gamma_correct(image: np.ndarray, exponent: float,
                  scale: float = 1.0) -> np.ndarray:
    """Power-law tonemap: (scale * image) ** exponent, clipped to [0, 1]."""
    if exponent <= 0 or scale <= 0:
        raise ConfigError("gamma exponent and scale must be positive")
    x = np.clip(np.asarray(image, dtype=np.float64) * scale, 0.0, None)
    return np.clip(x ** exponent, 0.0, 1.0)


def ssim(ref: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, float]:
    """Structural similarity on unit-range images.

    Gaussian-weighted local statistics (11x11, sigma 1.5) with the standard
    stabilizers C1 = 0.01^2 and C2 = 0.03^2.  Returns the per-pixel map and
    its mean over the interior (window margins cropped when the image is
    large enough).
    """
    from scipy.ndimage import gaussian_filter  # slow to import; only SSIM needs it

    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError("SSIM inputs must share dimensions")
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    blur = lambda x: gaussian_filter(x, _SSIM_SIGMA, truncate=_SSIM_TRUNCATE,
                                     mode="reflect")
    mu_a, mu_b = blur(a), blur(b)
    var_a = blur(a * a) - mu_a * mu_a
    var_b = blur(b * b) - mu_b * mu_b
    cov = blur(a * b) - mu_a * mu_b
    smap = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
           ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    r = _SSIM_RADIUS
    if min(smap.shape) > 2 * r:
        scalar = float(smap[r:-r, r:-r].mean())
    else:
        scalar = float(smap.mean())
    return smap, scalar


def psnr(ref: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio on unit-range images, in dB."""
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError("PSNR inputs must share dimensions")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0:
        return math.inf
    return -10.0 * math.log10(mse)


@dataclass
class MethodScores:
    worst_ssim: float
    mean_ssim: float
    worst_psnr: float
    worst_ssim_native: float
    ssim_grid: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "worst_ssim": self.worst_ssim,
            "mean_ssim": self.mean_ssim,
            "worst_psnr": self.worst_psnr,
            "worst_ssim_native": self.worst_ssim_native,
            "ssim_grid": self.ssim_grid.tolist(),
        }


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
            "methods": {k: v.to_json_dict() for k, v in self.scores.items()},
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


def _score_method(gt_gamma: np.ndarray, scene: RadianceMap, raw, config,
                  roi_size: int) -> MethodScores:
    est = estimate_photons(raw, config).data
    img_gamma = gamma_correct(est / config.well_capacity, 1.0 / 3.2)
    grid = RoiGrid(scene.height, scene.width, roi_size)
    ssims = np.empty(grid.shape)
    psnrs = np.empty(grid.shape)
    native = np.empty(grid.shape)
    for (i, j), sl in grid.slices():
        ref_blk, test_blk = gt_gamma[sl], img_gamma[sl]
        _, ssims[i, j] = ssim(ref_blk, test_blk)
        psnrs[i, j] = psnr(ref_blk, test_blk)
        # native view: superpixel-resolution estimate vs block-mean reference
        k = math.isqrt(int(raw.bin_factor[sl][0, 0]))
        if k > 1 and ref_blk.shape[0] % k == 0 and ref_blk.shape[1] % k == 0:
            blk = scene.data[sl]
            ref_native = blk.reshape(blk.shape[0] // k, k,
                                     blk.shape[1] // k, k).mean(axis=(1, 3))
            ref_native = gamma_correct(ref_native / config.well_capacity, 1.0 / 3.2)
            est_native = gamma_correct(est[sl][::k, ::k] / config.well_capacity,
                                       1.0 / 3.2)
            _, native[i, j] = ssim(ref_native, est_native)
        else:
            native[i, j] = ssims[i, j]
    return MethodScores(worst_ssim=float(ssims.min()),
                        mean_ssim=float(ssims.mean()),
                        worst_psnr=float(psnrs.min()),
                        worst_ssim_native=float(native.min()),
                        ssim_grid=ssims)


def evaluate_protocol(scene: RadianceMap, config: SensorConfig,
                      roi_size: int = 128, methods=METHODS, seed: int = 0,
                      eta: float = 2.0, snr_t: float = 4.0,
                      dump_dir=None) -> EvalReport:
    """Run the requested method pipelines on one scene and score them.

    ``dump_dir``, when given, receives 16-bit PGM renderings of each
    method's gamma-corrected output plus the ground truth, for visual
    inspection.
    """
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {sorted(unknown)}")
    pilot_seed, main_seed = [int(s.generate_state(1)[0])
                             for s in np.random.SeedSequence(seed).spawn(2)]
    pilot_raw = simulate_capture(scene, 1.0, None, config, seed=pilot_seed)
    pilot = estimate_photons(pilot_raw, config)
    gmap, _ = plan_gain_roi(pilot, roi_size, eta, config)
    # the constant gain protects the brightest pixel: one ROI over the frame
    whole, _ = plan_gain_roi(pilot, max(scene.height, scene.width, roi_size),
                             eta, config)
    g_base = float(whole.values[0, 0])

    # bin plan from the pilot at unit gain, per-ROI mean level
    bins = plan_bin_roi(pilot, roi_size, "additive", config, snr_t, 1.0)
    factors = bins.factors

    base_grid = np.full(factors.shape, g_base)
    trivial = BinMap(roi_size=roi_size, factors=np.ones_like(factors),
                     mode="digital")
    plans = {
        "const_gain_no_bin": (GainMap("per_roi", base_grid, roi_size, eta),
                              trivial),
        "vary_gain_no_bin": (gmap, trivial),
        "const_gain_vary_bin": (
            GainMap("per_roi", base_grid * factors, roi_size, eta), bins),
        "vary_gain_vary_bin": (
            gmap, BinMap(roi_size=roi_size, factors=factors, mode="digital")),
    }

    gt_gamma = gamma_correct(scene.data / config.well_capacity, 1.0 / 3.2)
    report = EvalReport(scene_shape=scene.data.shape, roi_size=roi_size,
                        seed=seed)
    if dump_dir is not None:
        from pathlib import Path
        from .fileio import write_pgm16
        dump = Path(dump_dir)
        dump.mkdir(parents=True, exist_ok=True)
        write_pgm16(dump / "ground_truth.pgm",
                    np.rint(gt_gamma * 65535).astype(np.uint16))
    for name in methods:
        gm, bm = plans[name]
        raw, _ = capture_spatially_varying(scene, gm, bm, config,
                                           seed=main_seed)
        report.scores[name] = _score_method(gt_gamma, scene, raw, config,
                                            roi_size)
        if dump_dir is not None:
            est = estimate_photons(raw, config).data
            img = gamma_correct(est / config.well_capacity, 1.0 / 3.2)
            write_pgm16(dump / f"{name}.pgm",
                        np.rint(img * 65535).astype(np.uint16))
    return report
