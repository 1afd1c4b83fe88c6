"""ROI tiling: one value per ROI, also where the ROI size does not divide
the frame."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from svsensor import RoiGrid, ShapeError

from conftest import roi_slices


@given(height=st.integers(1, 80), width=st.integers(1, 80),
       roi=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
@example(height=63, width=40, roi=7, seed=0)
@example(height=15, width=17, roi=10, seed=1)
def test_reduce_matches_roi_loop(height, width, roi, seed):
    # each ROI's value is exactly that of the ROI's own pixels, for clipped
    # edge ROIs and for ROIs larger than the frame too
    img = np.random.default_rng(seed).normal(0.0, 100.0, (height, width))
    grid = RoiGrid(height, width, roi)
    peak = grid.reduce(img, np.max)
    total = grid.reduce(img, np.sum)
    count = grid.reduce(img > 0, np.sum)
    assert peak.shape == total.shape == count.shape == grid.shape
    assert peak.dtype == total.dtype == img.dtype
    assert count.dtype == np.sum(img > 0).dtype
    for ij, sl in roi_slices(height, width, roi):
        assert peak[ij] == img[sl].max()
        assert total[ij] == np.sum(img[sl].copy())
        assert count[ij] == np.count_nonzero(img[sl] > 0)


def test_reduce_memory_is_bounded_by_the_frame():
    # one ROI far larger than the frame reduces over the frame's pixels
    # without allocating an ROI-sized block
    img = np.ones((48, 64))
    grid = RoiGrid(48, 64, 4096)
    tracemalloc.start()
    try:
        total = grid.reduce(img, np.sum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.tolist() == [[48.0 * 64]]
    assert peak < img.nbytes + 64 * 1024


def test_reduce_rejects_other_image_size():
    with pytest.raises(ShapeError):
        RoiGrid(8, 8, 4).reduce(np.zeros((8, 9)), np.sum)


@given(height=st.integers(1, 80), width=st.integers(1, 80),
       roi=st.integers(1, 100), seed=st.integers(0, 2 ** 32 - 1))
@example(height=15, width=17, roi=10, seed=0)
def test_expand_covers_odd_sizes(height, width, roi, seed):
    grid = RoiGrid(height, width, roi)
    values = np.random.default_rng(seed).uniform(size=grid.shape)
    full = grid.expand(values)
    assert full.shape == (height, width)
    for ij, sl in roi_slices(height, width, roi):
        assert np.all(full[sl] == values[ij])


@given(height=st.integers(1, 80), width=st.integers(1, 80),
       roi=st.integers(1, 100),
       dtype=st.sampled_from([np.float64, np.bool_, np.int64]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(height=3, width=90, roi=100, dtype=np.bool_, seed=0)
def test_expand_matches_repeat(height, width, roi, dtype, seed):
    # ROIs larger than the frame included; read-only, in the grid's dtype
    grid = RoiGrid(height, width, roi)
    values = np.random.default_rng(seed).normal(0.0, 50.0, grid.shape)
    values = values > 0 if dtype is np.bool_ else values.astype(dtype)
    full = grid.expand(values)
    want = np.repeat(np.repeat(values, roi, axis=0), roi,
                     axis=1)[:height, :width]
    assert full.dtype == want.dtype and full.tobytes() == want.tobytes()
    assert not full.flags.writeable
