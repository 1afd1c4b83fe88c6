import numpy as np
import pytest
from hypothesis import settings

from svsensor import RadianceMap, SensorConfig

# Property tests draw the same examples on every run and stay cheap enough
# for the tier-1 suite; a capture's first call may be slow, so no deadline.
settings.register_profile("svsensor", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("svsensor")


@pytest.fixture
def config():
    """The simulation-protocol sensor: 1000 e- well, 0.33/3.31 e- read
    noise, 12 bits, 5% black level, 0.5 um pitch, gains 1..27."""
    return SensorConfig()


@pytest.fixture
def quiet_config():
    """Noiseless variant for deterministic checks (quantization only)."""
    return SensorConfig(sigma_pre=0.0, sigma_post=0.0)


def roi_slices(height, width, roi):
    """Oracle tiling: yield ((roi_row, roi_col), (row slice, column slice))
    for every ROI in row-major order, edge ROIs clipped to the frame."""
    for i in range(-(-height // roi)):
        for j in range(-(-width // roi)):
            yield (i, j), (slice(i * roi, min((i + 1) * roi, height)),
                           slice(j * roi, min((j + 1) * roi, width)))


def uniform_scene(level, height=64, width=64):
    return RadianceMap(data=np.full((height, width), float(level)))


@pytest.fixture
def make_uniform():
    return uniform_scene
