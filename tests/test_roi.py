"""ROI tiling: one value per ROI, also where the ROI size does not divide
the frame."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from svsensor import RoiGrid, ShapeError


@given(height=st.integers(1, 80), width=st.integers(1, 80),
       roi=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_reduce_matches_roi_loop(height, width, roi, seed):
    img = np.random.default_rng(seed).normal(0.0, 100.0, (height, width))
    grid = RoiGrid(height, width, roi)
    peak = grid.reduce(img, np.max, -np.inf)
    total = grid.reduce(img, np.sum, 0.0)
    assert peak.shape == total.shape == grid.shape
    for ij, sl in grid.slices():
        assert peak[ij] == img[sl].max()
        assert total[ij] == pytest.approx(img[sl].sum(), rel=1e-12,
                                          abs=1e-9)


def test_reduce_rejects_other_image_size():
    with pytest.raises(ShapeError):
        RoiGrid(8, 8, 4).reduce(np.zeros((8, 9)), np.sum, 0.0)


@given(height=st.integers(1, 80), width=st.integers(1, 80),
       roi=st.integers(1, 100), seed=st.integers(0, 2 ** 32 - 1))
@example(height=15, width=17, roi=10, seed=0)
def test_expand_covers_odd_sizes(height, width, roi, seed):
    grid = RoiGrid(height, width, roi)
    values = np.random.default_rng(seed).uniform(size=grid.shape)
    full = grid.expand(values)
    assert full.shape == (height, width)
    for ij, sl in grid.slices():
        assert np.all(full[sl] == values[ij])
