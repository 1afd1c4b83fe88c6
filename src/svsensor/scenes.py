"""Scene construction: three scene sources, photon-count normalization and
the analytic boxed sinusoid.

Scenes are expected photon arrivals per unit pixel per exposure.  A
``SceneSpec`` names a PFM file of linear radiance or one of the synthetic
``texture`` and ``hdr_blobs`` scenes; ``load_and_normalize`` rescales it so
the mean sits at a chosen fraction of the well capacity (the simulation
protocol uses 0.05).  ``boxed_sinusoid`` is generated directly in photon
units.

The synthetic scenes are smoothed noise, blurred as scipy's
``gaussian_filter`` blurs in one of two passes: a fixed sigma through
``metrics._blur``'s window, bit for bit, and the ``hdr_blobs`` illumination
field, whose sigma grows with the frame, through one FFT per axis, equal
to rounding: a window's cost grows with its radius, an FFT's does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .fileio import read_pfm
from .metrics import _blur, _gaussian_weights, _reflect
from .sensor import RadianceMap, SensorConfig, is_json_int
from .theory import contrast


@dataclass(frozen=True)
class SceneSpec:
    """Declarative scene source.

    source            'pfm', 'texture' or 'hdr_blobs'
    path              input file for 'pfm'
    mean_level_frac   target mean as a fraction of well capacity; None keeps
                      the source's own scale
    seed              texture/hdr generator seed
    width, height     synthetic scene size
    """

    source: str
    path: str | None = None
    mean_level_frac: float | None = None
    seed: int = 0
    width: int = 128
    height: int = 128

    def __post_init__(self):
        if self.source not in ("pfm", "texture", "hdr_blobs"):
            raise ConfigError(f"unknown scene source {self.source!r}")
        if self.mean_level_frac is not None and not (0 < self.mean_level_frac < 1):
            raise ConfigError("mean_level_frac must lie in (0, 1)")
        for name, least in (("width", 1), ("height", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_json_int(value) and value >= least):
                raise ConfigError(f"scene {name} must be an integer of at "
                                  f"least {least}, not {value!r}")


def boxed_sinusoid(freq: float, density: float, pitch: float,
                   width: int, height: int) -> np.ndarray:
    """Expected photon counts of a horizontal sinusoid integrated over
    square pixels.

    The scene is (density/2) * (cos(2*pi*freq*x) + 1) photons per
    unit area; integrating over a pitch-sized pixel centered at
    x = (j + 1/2) * pitch gives half the ``theory.contrast`` of ``freq``
    times the cosine at that center, plus half the flat-field count.
    """
    amp = 0.5 * contrast(freq, density, pitch)
    centers = (np.arange(width) + 0.5) * pitch
    row = (amp * np.cos(2 * math.pi * freq * centers)
           + 0.5 * density * pitch * pitch)
    return np.tile(row, (height, 1))


def _window_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """scipy's ``gaussian_filter(x, sigma)`` bit for bit: the window pass."""
    return _blur(x[None], 0, _gaussian_weights(sigma))[0]


def _fft_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """scipy's ``gaussian_filter(x, sigma)`` to rounding: the FFT pass.
    Per axis, each line is extended by the kernel radius r as ``_reflect``
    extends it, convolved with the kernel by one real FFT at length n + 2r,
    which the extension keeps from wrapping, and cut to its middle n."""
    w = _gaussian_weights(sigma)
    r = len(w) // 2
    for axis in (0, 1):
        n = x.shape[axis]
        kernel = np.fft.rfft(np.roll(np.pad(w, (0, n - 1)), -r))
        # rebinding x frees each step's input; the copy frees the margins
        x = np.fft.rfft(np.take(x, _reflect(n, r), axis=axis), axis=axis)
        x *= kernel if axis else kernel[:, None]
        x = np.fft.irfft(x, n + 2 * r, axis=axis)
        x = (x[r:r + n] if axis == 0 else x[:, r:r + n]).copy()
    return x


def _texture(seed: int, width: int, height: int) -> np.ndarray:
    """Broadband positive texture with unit mean: smoothed noise at two
    scales so there is detail for binning to destroy."""
    rng = np.random.default_rng(seed)
    fine = _window_blur(rng.standard_normal((height, width)), 1.2)
    coarse = _window_blur(rng.standard_normal((height, width)), 4.0)
    img = fine + 0.6 * coarse
    img -= img.min()
    mean = img.mean()
    if mean <= 0:
        img += 1.0
        mean = img.mean()
    return img / mean


def _hdr_blobs(seed: int, width: int, height: int) -> np.ndarray:
    """Piecewise-smooth scene spanning four decades: a smooth log-domain
    illumination field modulated by mild texture.  The texture's sigma of 1
    takes the window pass; the field's, an eighth of the frame's smaller
    side, takes the FFT pass, whose cost does not grow with sigma (the
    window would read 2049 taps per pixel at 2048 x 2048)."""
    rng = np.random.default_rng(seed)
    field = _fft_blur(rng.standard_normal((height, width)),
                      0.125 * min(height, width))
    lo, hi = field.min(), field.max()
    field = (field - lo) / (hi - lo) if hi > lo else np.zeros_like(field)
    img = 10.0 ** (field * 4.0 - 1.0)
    tex = 1.0 + 0.35 * _window_blur(rng.standard_normal((height, width)), 1.0)
    img *= np.clip(tex, 0.05, None)
    return img


def load_and_normalize(spec: SceneSpec, config: SensorConfig) -> RadianceMap:
    """Build the scene and rescale its mean to
    ``mean_level_frac * well_capacity`` (exactly).  Negative input values
    clip to zero before normalization."""
    if spec.source == "pfm":
        if spec.path is None:
            raise DataError("pfm source needs a path")
        data = read_pfm(spec.path)
        if not np.all(np.isfinite(data)):
            raise DataError(f"{spec.path} contains non-finite values")
        data = np.clip(np.asarray(data, dtype=np.float64), 0.0, None)
    elif spec.source == "texture":
        data = _texture(spec.seed, spec.width, spec.height)
    else:
        data = _hdr_blobs(spec.seed, spec.width, spec.height)

    # an empty map has no mean to rescale, and RadianceMap rejects it
    if spec.mean_level_frac is not None and data.size:
        mean = data.mean()
        if mean <= 0:
            raise DataError("scene mean is zero: cannot normalize")
        data = data * (spec.mean_level_frac * config.well_capacity / mean)
    return RadianceMap(data=data)

