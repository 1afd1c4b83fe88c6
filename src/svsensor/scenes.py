"""Scene construction: three scene sources, photon-count normalization and
the analytic boxed sinusoid.

Scenes are expected photon arrivals per unit pixel per exposure.  A
``SceneSpec`` names a PFM file of linear radiance or one of the synthetic
``texture`` and ``hdr_blobs`` scenes; ``load_and_normalize`` rescales it so
the mean sits at a chosen fraction of the well capacity (the simulation
protocol uses 0.05).  ``boxed_sinusoid`` is generated directly in photon
units.

The synthetic scenes are smoothed noise, blurred as scipy's
``gaussian_filter`` blurs in one of two passes: a fixed sigma through the
window pass ``_window_blur``, scipy's own sums in scipy's order and so bit
for bit, and the ``hdr_blobs`` illumination field, whose sigma grows with
the frame, through one FFT per axis, equal to rounding: a window's cost
grows with its radius, an FFT's does not.  (SSIM's window in ``metrics``
is another: banded matrix products, equal to rounding.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .fileio import read_pfm
from .metrics import _gaussian_weights, _reflect
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


# Output rows per strip of the window pass, which takes both axes of a strip
# while its rows are in cache, and lines per strip of the FFT pass
_STRIP = 32


def _window_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """scipy's ``gaussian_filter(x, sigma)`` bit for bit: the window pass.

    Along axis 0 and then axis 1, each extended by ``_reflect``, each
    output sums ``x[c] * w0`` and then ``(x[c - j] + x[c + j]) * wj`` for
    j = r down to 1, the order of scipy's symmetric correlation.  The frame
    goes in strips of ``_STRIP`` output rows, each taking its extended
    rows through the ``_reflect`` indices and then both passes in turn:
    every output keeps its inputs and its order of operations."""
    w = _gaussian_weights(sigma)
    r = len(w) // 2
    h = x.shape[0]
    rows, cols = _reflect(h, r), _reflect(x.shape[1], r)
    out = np.empty(x.shape)
    for s in range(0, h, _STRIP):
        strip = _taps(np.take(x, rows[s:s + min(_STRIP, h - s) + 2 * r],
                              axis=0), 0, w)
        _taps(np.take(strip, cols, axis=1), 1, w, out[s:s + _STRIP])
    return out


def _taps(x: np.ndarray, axis: int, weights, out=None) -> np.ndarray:
    """One pass of ``_window_blur`` along ``axis`` of a 2-D ``x`` that the
    window radius r extends at both ends, into ``out`` if given."""
    r = len(weights) // 2
    m = x.shape[axis] - 2 * r  # output t is centred on x[t + r]

    def tap(d):
        return x[r + d:r + d + m] if axis == 0 else x[:, r + d:r + d + m]

    out = np.multiply(tap(0), weights[r], out=out)
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(tap(-j), tap(j), out=pair)
        pair *= weights[r + j]
        out += pair
    return out


def _fft_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """scipy's ``gaussian_filter(x, sigma)`` to rounding: the FFT pass.
    Per axis, each line is extended by the kernel radius r as ``_reflect``
    extends it, convolved with the kernel by one real FFT at length n + 2r,
    which the extension keeps from wrapping, and cut to its middle n.  A
    pass takes the columns in strips of ``_STRIP``, written as the rows of
    its output, so no frame-sized FFT is held; the second pass, on the
    first one's transposed output, takes the rows."""
    w = _gaussian_weights(sigma)
    r = len(w) // 2
    for _ in range(2):
        lines = x.T
        n = lines.shape[1]
        kernel = np.fft.rfft(np.roll(np.pad(w, (0, n - 1)), -r))
        x = np.empty(lines.shape)
        for s in range(0, len(lines), _STRIP):
            f = np.fft.rfft(np.take(lines[s:s + _STRIP], _reflect(n, r),
                                    axis=1), axis=1)
            f *= kernel
            x[s:s + _STRIP] = np.fft.irfft(f, n + 2 * r, axis=1)[:, r:r + n]
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
    # the illumination field, rebound at each step to free the last one
    img = _fft_blur(rng.standard_normal((height, width)),
                    0.125 * min(height, width))
    lo, hi = img.min(), img.max()
    img = (img - lo) / (hi - lo) if hi > lo else np.zeros_like(img)
    img = 10.0 ** (img * 4.0 - 1.0)
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

