"""Physical sensor model: forward simulation to digital numbers and the inverse
photon estimator.

Signal chain for one pixel with expected photon arrival ``m`` (electrons after
quantum efficiency) and analog gain ``g``:

    l ~ Poisson(m)                      photon shot noise
    v = g * (l + n_pre) + n_post        n_pre ~ N(0, sigma_pre^2), n_post ~ N(0, sigma_post^2)
    digit = clip(rint(v * slope) + black_level, 0, digital_max)

The ADC slope is fixed so that a full well at unit gain spans the digital
range above the black level: ``slope = (digital_max - black_level) / well_capacity``
digits per amplified electron.  Saturation therefore occurs when
``g * l`` approaches the well capacity, which is exactly the operating point
the gain planner engineers against.  Negative excursions of the dark noise
land below the black level and clip only at digit 0, so dark frames keep
their full (symmetric) noise statistics.

Dark current is not modeled: at the exposure times of interest it is
negligible next to read noise.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field, fields, asdict
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .roi import RoiGrid

BIN_LADDER = (1, 2, 4, 8)  # linear bin factors; N = k*k
BIN_MODES = ("additive", "average", "digital")


def is_json_int(value) -> bool:
    """Whether a plan field is an integer, not a bool or a whole float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_bin_factor(n, ladder=BIN_LADDER):
    """Whether each number of ``n`` is a bin factor N = k * k, k in
    ``ladder``; ``kind="sort"`` tests the four factors in turn, 9 times
    faster than ``np.isin``'s default table on a 512 x 512 per-pixel plan."""
    return np.isin(n, [k * k for k in ladder], kind="sort")


def _read_only(arr, dtype=None) -> np.ndarray:
    """A read-only view of ``arr`` as ``dtype`` (of a converted copy if need
    be), leaving the caller's own array writeable."""
    view = np.asarray(arr, dtype=dtype).view()
    view.flags.writeable = False
    return view


def roi_ladder(roi_size: int) -> tuple:
    """The linear bin factors k of ``BIN_LADDER`` that divide ``roi_size``,
    the only ones a plan at that size uses."""
    return tuple(k for k in BIN_LADDER if roi_size % k == 0)


@dataclass(frozen=True)
class SensorConfig:
    """Physical description of the sensor.

    pixel_pitch        unit (pre-binning) pixel pitch in micrometers
    well_capacity      electrons a pixel holds at saturation
    sigma_pre          RMS read noise injected before the amplifier, electrons
    sigma_post         RMS read noise injected after the amplifier, in
                       amplified-electron units
    bit_depth          ADC bits
    black_level_frac   black level as a fraction of digital full scale
    gain_min/gain_max  allowed analog gain range (unitless, >= 1)
    quantum_efficiency fraction of photons converted to electrons
    """

    pixel_pitch: float = 0.5
    well_capacity: float = 1000.0
    sigma_pre: float = 0.33
    sigma_post: float = 3.31
    bit_depth: int = 12
    black_level_frac: float = 0.05
    gain_min: float = 1.0
    gain_max: float = 27.0
    quantum_efficiency: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            # NaN, infinities and integers past the float range all fail
            if (isinstance(v, bool) or not isinstance(v, kind)
                    or not abs(v) <= sys.float_info.max):
                raise ConfigError(f"sensor config {f.name} must be a finite "
                                  f"{f.type}, not {v!r}")
        if self.well_capacity <= 0:
            raise ConfigError("well_capacity must be positive")
        if self.sigma_pre < 0 or self.sigma_post < 0:
            raise ConfigError("read noise cannot be negative")
        if not (1 <= self.gain_min <= self.gain_max):
            raise ConfigError("need 1 <= gain_min <= gain_max")
        if not (0 <= self.black_level_frac < 1):
            raise ConfigError("black_level_frac must lie in [0, 1)")
        if not (8 <= self.bit_depth <= 16):
            raise ConfigError("bit_depth must lie in [8, 16]")
        if not (0 < self.quantum_efficiency <= 1):
            raise ConfigError("quantum_efficiency must lie in (0, 1]")
        if self.pixel_pitch <= 0:
            raise ConfigError("pixel_pitch must be positive")

    # Derived once per config, not on each call of the ADC or of
    # ``next_gain``; ``==``, hashing and ``to_json`` see only the fields.
    @cached_property
    def digital_max(self) -> int:
        return (1 << self.bit_depth) - 1

    @cached_property
    def black_level(self) -> int:
        return int(np.rint(self.black_level_frac * self.digital_max))

    @cached_property
    def adc_slope(self) -> float:
        """Digits per amplified electron."""
        return (self.digital_max - self.black_level) / self.well_capacity

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SensorConfig":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"sensor config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("sensor config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown sensor config fields: {sorted(unknown)}")
        return cls(**doc)


# The largest mean numpy's Poisson draw takes, computed as numpy computes it
_POISSON_MAX = (np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10).item()


@dataclass(frozen=True)
class RadianceMap:
    """Noise-free expected photon arrivals per unit pixel per exposure:
    finite, nonnegative and within ``_POISSON_MAX``, so that every pixel
    can be drawn."""

    data: np.ndarray

    def __post_init__(self):
        arr = _read_only(self.data, np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeError("radiance map must be 2-D and not empty, not "
                             f"of shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("radiance map contains non-finite values")
        if np.any(arr < 0):
            raise DataError("radiance map contains negative values")
        if np.any(arr > _POISSON_MAX):
            raise DataError("radiance map holds means above "
                            f"{_POISSON_MAX:.4g} photons, the most a Poisson "
                            "draw takes")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Plan:
    """A readout plan: one gain and one bin factor N = k * k per ROI of the
    ``roi_size`` tiling of a frame, and one binning ``mode``.  A constant
    plan is the 1 x 1 grid at ``roi_size = max(height, width)``, a
    per-pixel plan the grid at ``roi_size = 1``.

    Every plan's values are checked here, once, in this order, and the
    first rule that fails is named (ConfigError): a positive integer
    ``roi_size``, a mode of ``BIN_MODES``, finite positive gains, and
    integral bin factors whose side k in ``BIN_LADDER`` divides
    ``roi_size``.  ``gains`` and ``bins`` are 2-D grids of one shape
    (ShapeError), held read-only as float64 and int64.
    """

    roi_size: int
    gains: np.ndarray
    bins: np.ndarray
    mode: str

    def __post_init__(self):
        size, g, b = (self.roi_size, np.asarray(self.gains),
                      np.asarray(self.bins))
        if g.ndim != 2 or b.shape != g.shape:
            raise ShapeError("a plan holds 2-D gain and bin factor grids of "
                             f"one shape, not {g.shape} and {b.shape}")
        if not (is_json_int(size) and size >= 1):
            rule = f"a positive integer roi_size, not {size!r}"
        elif self.mode not in BIN_MODES:
            rule = f"a mode of {BIN_MODES}, not {self.mode!r}"
        elif g.dtype.kind not in "iuf" or not np.all((g > 0) & (g < np.inf)):
            rule = "finite positive gains"
        elif (b.dtype.kind not in "iuf"
              or not is_bin_factor(b, roi_ladder(size)).all()):
            rule = (f"bin factors {[k * k for k in BIN_LADDER]} whose sides "
                    f"divide roi_size {size}")
        else:
            rule = None
        if rule:
            raise ConfigError(f"a plan needs {rule}")
        for name, arr in (("gains", g.astype(np.float64)),
                          ("bins", b.astype(np.int64))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def grid(self, height: int, width: int) -> RoiGrid:
        """The plan's ROI grid on a ``height`` x ``width`` frame; ShapeError
        unless the plan holds one gain and one bin factor per ROI of it."""
        grid = RoiGrid(height, width, self.roi_size)
        grid.check(self.gains, "plan")
        return grid

    def check_gains(self, config: SensorConfig) -> None:
        """ConfigError unless every amplifier gain, g or under additive
        binning g / N, lies in the configured range."""
        n = self.bins if self.mode == "additive" else np.ones_like(self.bins)
        amp = self.gains / n
        bad = (amp < config.gain_min) | (amp > config.gain_max)
        if bad.any():
            g, n = float(self.gains[bad][0]), int(n[bad][0])
            how = f" with additive binning at N={n}" if n > 1 else ""
            raise ConfigError(
                f"gain {g}{how} runs the amplifier at {g / n}, outside "
                f"[gain_min={config.gain_min}, gain_max={config.gain_max}]")


@dataclass(frozen=True)
class RawCapture:
    """Quantized digital image plus the ``Plan`` it was read under, with
    one gain and one bin factor per ROI of the digits (ShapeError
    otherwise).  ``gain`` is the plan's gains expanded to one read-only
    value per pixel: the nominal decode gain (for binned readouts it already
    includes the bin factor, so decoding is uniformly
    ``dequantize(digits) / gain``).  ``meta`` holds what the plan does not:
    the adaptive strategy and its eta, or the stack gains a composite was
    copied from.
    """

    digits: np.ndarray
    saturation_mask: np.ndarray
    plan: Plan
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        d = _read_only(self.digits)
        m = _read_only(self.saturation_mask, bool)
        if d.ndim != 2 or m.shape != d.shape:
            raise ShapeError("digits must be 2-D and the mask of their shape")
        self.plan.grid(*d.shape)
        object.__setattr__(self, "digits", d)
        object.__setattr__(self, "saturation_mask", m)

    @cached_property
    def gain(self) -> np.ndarray:
        return self.plan.grid(*self.digits.shape).expand(self.plan.gains)


@dataclass(frozen=True)
class PhotonEstimate:
    """Estimated photon counts; validity is false where saturation made the
    estimate unreliable."""

    data: np.ndarray
    validity_mask: np.ndarray

    def __post_init__(self):
        d = _read_only(self.data, np.float64)
        m = _read_only(self.validity_mask, bool)
        if d.shape != m.shape:
            raise ShapeError("estimate/validity shape mismatch")
        if not np.all(np.isfinite(d[m])):
            raise DataError("non-finite estimate on valid pixels")
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "validity_mask", m)


# ---------------------------------------------------------------- ADC stage

def quantize(voltage: np.ndarray, config: SensorConfig) -> np.ndarray:
    """Convert amplified-electron values to digital numbers.

    Round-half-to-even keeps the quantizer unbiased; the final digit clips to
    [0, digital_max] so values below the black level remain representable
    down to digit 0.
    """
    return _adc_in_place(np.array(voltage, dtype=np.float64),
                         config).astype(np.uint16)


def _adc_in_place(d: np.ndarray, config: SensorConfig) -> np.ndarray:
    """The digits ``quantize`` makes of the float64 array ``d``, still as
    float64 and written over ``d``."""
    d *= config.adc_slope
    np.rint(d, out=d)
    d += config.black_level
    np.maximum(d, 0, out=d)
    return np.minimum(d, config.digital_max, out=d)


def dequantize(digits: np.ndarray, config: SensorConfig) -> np.ndarray:
    """Invert the ADC back to amplified-electron units (black level removed)."""
    d = np.array(digits, dtype=np.float64)
    d -= config.black_level
    d /= config.adc_slope
    return d


# ------------------------------------------------------------- simulation

def draw_photons(rng: np.random.Generator, mean_counts) -> np.ndarray:
    """Photon arrivals for the exposure.  Isolated so tests can swap in the
    noiseless limit (arrivals equal to their mean)."""
    return np.asarray(rng.poisson(mean_counts), dtype=np.float64)


@dataclass(frozen=True)
class Realization:
    """The read-only noise of one (scene, seed): each unit pixel's charge
    (photon arrivals plus pre-amp noise) and post-amp normal.  An analog
    k x k superpixel reads the post-amp normal of its top-left unit pixel
    (``readout.read_blocks``)."""

    seed: int
    charge: np.ndarray
    n_post: np.ndarray


_BAND_ROWS = 16  # part of the realization: another value changes every draw


def _check_seed(seed) -> None:
    """ConfigError unless ``seed`` is a nonnegative integer (not a bool)."""
    if not (is_json_int(seed) and seed >= 0):
        raise ConfigError(f"a seed must be a nonnegative integer, not {seed!r}")


def _helper_thread():
    """An executor of one worker thread, which starts at its first task and
    is joined when its ``with`` block ends."""
    # imported here: it costs every command's start-up about 9 ms
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1)


def _by_turns(helper, items, work) -> None:
    """Call ``work(*item)`` for each of ``items``.  With an executor
    ``helper``, one task on it takes the odd items while this thread takes
    the even ones; both shares are run to the end, and this thread's error
    is raised first, else the helper's.  Without one, or for one item,
    this thread takes them all in order."""
    def run(share):
        for item in share:
            work(*item)

    if helper is None or len(items) < 2:
        return run(items)
    side = helper.submit(run, items[1::2])
    try:
        run(items[::2])
    finally:
        side.exception()  # waits for the helper's share
    side.result()


def draw_noise(scene: RadianceMap, config: SensorConfig, seed: int, *,
               helper=None) -> Realization:
    """The noise realization of one (scene, seed), whatever the plan: its
    unit-pixel draws, which every plan reads.

    The frame is drawn in bands of 16 rows; band b (rows ``16 b`` up to
    ``16 b + 16``) draws from child b of ``SeedSequence(seed).spawn`` of
    one child per band, in this order: its unit-pixel photon arrivals
    (``draw_photons``, C order), pre-amp normals, then post-amp normals.
    Each normal is ``sigma * standard_normal()``, the value
    ``normal(0, sigma)`` gives.

    With an executor ``helper``, one task on it draws the odd bands while
    this thread draws the even ones.  Each band has its own stream, so the
    realization is the same bit for bit whichever thread draws a band.
    ConfigError unless ``seed`` is a nonnegative integer.
    """
    _check_seed(seed)
    h, w = scene.data.shape
    qe = config.quantum_efficiency
    charge, n_post = np.empty((h, w)), np.empty((h, w))

    def band(r0, child):
        rng = np.random.default_rng(child)
        rows = slice(r0, r0 + _BAND_ROWS)
        mean = scene.data[rows]
        charge[rows] = draw_photons(rng, mean if qe == 1 else mean * qe)
        # both normals in one call, which draws the same stream as one call
        # per array: few calls, so that few hand the GIL over
        pre, post = rng.standard_normal((2, *mean.shape))
        pre *= config.sigma_pre
        charge[rows] += pre
        np.multiply(post, config.sigma_post, out=n_post[rows])

    starts = range(0, h, _BAND_ROWS)
    _by_turns(helper, list(zip(starts, np.random.SeedSequence(seed).spawn(
        len(starts)))), band)
    for arr in (charge, n_post):
        arr.flags.writeable = False
    return Realization(seed, charge, n_post)


def simulate_capture(scene: RadianceMap, gain_map, bin_map,
                     config: SensorConfig, seed: int = 0) -> RawCapture:
    """Simulate a full capture of ``scene``: ``draw_noise`` at ``seed``,
    on this thread and one helper thread, read out by ``readout.read_plan``
    under the plan that ``readout.fit_plan`` makes of ``gain_map`` (a
    ``GainMap``, or a number read as the constant plan of that gain) and
    ``bin_map`` (a ``BinMap`` on the same ROI grid, or None for unit
    pixels).

    One seed is one noise realization: however the same gain is written
    (a scalar, or a per-ROI or per-pixel GainMap of it, with or without an
    all-ones BinMap), the digits are the same.
    """
    from .readout import fit_plan, read_plan  # builds on sensor types

    plan = fit_plan(gain_map, bin_map, scene.data.shape)
    with _helper_thread() as helper:
        noise = draw_noise(scene, config, seed, helper=helper)
    return read_plan(noise, plan, config)


def estimate_photons(raw: RawCapture, config: SensorConfig) -> PhotonEstimate:
    """Invert a capture to photon counts: dequantize and divide by gain.

    On unsaturated pixels the estimate is unbiased with variance
    ``m + sigma_pre^2 + sigma_post^2 / g^2``; saturated pixels are kept in
    the array but flagged invalid.
    """
    est = dequantize(raw.digits, config)
    est /= raw.gain
    return PhotonEstimate(data=est, validity_mask=~raw.saturation_mask)
