"""Photon-transfer-style read-noise calibration.

Dark frames captured across a gain sweep have per-pixel temporal variance

    Var(g) = slope^2 * (g^2 * sigma_pre^2 + sigma_post^2)      [digits^2]

so a quadratic fit of variance against gain separates the two read-noise
components.  The fit is constrained to nonnegative coefficients: with few
frames, ordinary least squares happily returns a negative variance for the
smaller component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .sensor import RawCapture, SensorConfig


@dataclass
class NoiseProfile:
    """Calibrated read-noise pair with fit diagnostics.

    ``units`` records whether the sigmas are in digits or electrons;
    ``clipped`` flags coefficients that the nonnegativity constraint pinned
    at zero.
    """

    sigma_pre: float
    sigma_post: float
    units: str = "digits"
    fit_residual: float = 0.0
    gain_samples: list = field(default_factory=list)
    clipped: bool = False

    def to_electrons(self, config: SensorConfig) -> "NoiseProfile":
        """Convert digit-unit estimates via the ADC slope."""
        if self.units == "electrons":
            return self
        s = config.adc_slope
        return NoiseProfile(sigma_pre=self.sigma_pre / s,
                            sigma_post=self.sigma_post / s,
                            units="electrons",
                            fit_residual=self.fit_residual / s ** 2,
                            gain_samples=[(g, v / s ** 2)
                                          for g, v in self.gain_samples],
                            clipped=self.clipped)


def dark_variance(frames: list) -> float:
    """Temporal per-pixel variance of a dark-frame burst, averaged over
    pixels (digits^2).

    Per-pixel temporal statistics cancel fixed-pattern offsets that a
    spatial variance would count as noise; the black level drops out with
    the mean.
    """
    if len(frames) < 2:
        raise DataError("need at least two dark frames")
    stacks = []
    gains = set()
    for f in frames:
        if isinstance(f, RawCapture):
            gains.update(np.unique(f.plan.gains).tolist())
            stacks.append(f.digits.astype(np.float64))
        else:
            stacks.append(np.asarray(f, dtype=np.float64))
    if len(gains) > 1:
        raise DataError("dark frames span multiple gains")
    if len({s.shape for s in stacks}) > 1 or stacks[0].ndim != 2:
        raise DataError("dark frames must share dimensions")
    return float(np.stack(stacks).var(axis=0, ddof=1).mean())


def fit_read_noise(samples: list, config: SensorConfig | None = None,
                   units: str = "digits") -> NoiseProfile:
    """Fit Var(g) = a*g^2 + b with a, b >= 0 and return sigmas sqrt(a),
    sqrt(b).

    ``samples`` is a list of (gain, variance) pairs measured in ``units``
    ('digits' or 'electrons').  Passing a config converts digit-unit results
    to electrons through the ADC slope.

    The fit is the exact two-variable nonnegative least squares: the
    unconstrained least-squares solution when both its coefficients are
    nonnegative, otherwise the better of the two one-term fits
    (a = max(sum g^2 v / sum g^4, 0), b = 0) and (a = 0, b = max(mean v, 0)).
    ``fit_residual`` is the fit's RMS residual.
    """
    if len(samples) < 3:
        raise DataError("need at least three gain samples")
    g = np.asarray([s[0] for s in samples], dtype=np.float64)
    v = np.asarray([s[1] for s in samples], dtype=np.float64)
    if not np.all((g > 0) & (g < np.inf)):
        raise DataError(f"calibration gains must be finite and positive, not "
                        f"{g.tolist()}")
    if np.unique(g).size < 2:
        raise NumericalError("all gains equal: quadratic fit is degenerate")
    design = np.column_stack([g ** 2, np.ones_like(g)])
    ls, *_ = np.linalg.lstsq(design, v, rcond=None)
    # clipped if the unconstrained solution went negative
    clipped = bool(ls[0] < 0 or ls[1] < 0)
    if clipped:
        g2 = design[:, 0]
        coef = min(([max(float(g2 @ v / (g2 @ g2)), 0.0), 0.0],
                    [0.0, max(float(v.mean()), 0.0)]),
                   key=lambda c: np.linalg.norm(design @ c - v))
    else:
        coef = ls
    a, b = float(coef[0]), float(coef[1])
    residual = float(np.linalg.norm(design @ coef - v))
    profile = NoiseProfile(sigma_pre=math.sqrt(a), sigma_post=math.sqrt(b),
                           units=units,
                           fit_residual=residual / math.sqrt(len(samples)),
                           gain_samples=[(float(x), float(y))
                                         for x, y in zip(g, v)],
                           clipped=clipped)
    if config is not None and units == "digits":
        profile = profile.to_electrons(config)
    return profile
