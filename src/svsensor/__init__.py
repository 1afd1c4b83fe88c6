"""Image-sensor simulation with spatially-varying gain and binning readout."""

from .calibrate import NoiseProfile, dark_variance, fit_read_noise
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .gain import (GainMap, PlanReport, capture_adaptive, gain_for_level,
                   gain_from_vignetting, next_gain, plan_gain_roi,
                   quantize_to_ladder)
from .metrics import EvalReport, evaluate_protocol, gamma_correct, psnr, ssim
from .readout import (BinMap, GainStack, bin_capture,
                      capture_spatially_varying, compose_from_gain_stack,
                      plan_bin_roi)
from .roi import RoiGrid
from .scenes import SceneSpec, boxed_sinusoid, load_and_normalize
from .sensor import (PhotonEstimate, Plan, RadianceMap, RawCapture,
                     SensorConfig, dequantize, estimate_photons, quantize,
                     simulate_capture)
from .theory import (BinLut, PitchCurve, TheoryParams, contrast,
                     cutoff_frequency, light_to_bin_lut, noise_sigma,
                     optimal_pitch, sweep_pitch)

__version__ = "0.1.0"

__all__ = [
    "BinLut", "BinMap", "ConfigError", "DataError", "EvalReport", "GainMap",
    "GainStack", "NoiseProfile", "NumericalError", "PhotonEstimate",
    "PitchCurve", "Plan", "PlanReport", "RadianceMap", "RawCapture", "RoiGrid",
    "SceneSpec",
    "SensorConfig", "ShapeError", "TheoryParams", "bin_capture",
    "boxed_sinusoid", "capture_adaptive", "capture_spatially_varying",
    "compose_from_gain_stack", "contrast", "cutoff_frequency",
    "dark_variance", "dequantize", "estimate_photons", "evaluate_protocol",
    "fit_read_noise", "gain_for_level", "gain_from_vignetting",
    "gamma_correct", "light_to_bin_lut", "load_and_normalize",
    "next_gain", "noise_sigma", "optimal_pitch",
    "plan_bin_roi", "plan_gain_roi", "psnr",
    "quantize", "quantize_to_ladder", "simulate_capture",
    "ssim", "sweep_pitch",
]
