"""ROI tiling: one value per ROI, also where the ROI size does not divide
the frame."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from svsensor import RoiGrid, ShapeError

from conftest import roi_slices


def reduce_whole_frame(img, roi, fn, fill):
    """Oracle: pad the whole frame with ``fill`` to whole ROIs, then reduce
    each ROI's pixels in row-major order."""
    h, w = img.shape
    rows, cols = -(-h // roi), -(-w // roi)
    padded = np.pad(img, ((0, rows * roi - h), (0, cols * roi - w)),
                    constant_values=fill)
    blocks = padded.reshape(rows, roi, cols, roi).swapaxes(1, 2)
    return fn(blocks.reshape(rows, cols, roi * roi), axis=-1)


@given(height=st.integers(1, 80), width=st.integers(1, 80),
       roi=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_reduce_matches_roi_loop(height, width, roi, seed):
    img = np.random.default_rng(seed).normal(0.0, 100.0, (height, width))
    grid = RoiGrid(height, width, roi)
    peak = grid.reduce(img, np.max, -np.inf)
    total = grid.reduce(img, np.sum, 0.0)
    count = grid.reduce(img > 0, np.sum, False)
    assert peak.shape == total.shape == count.shape == grid.shape
    for got, arr, fn, fill in ((peak, img, np.max, -np.inf),
                               (total, img, np.sum, 0.0),
                               (count, img > 0, np.sum, False)):
        want = reduce_whole_frame(arr, roi, fn, fill)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for ij, sl in roi_slices(height, width, roi):
        assert peak[ij] == img[sl].max()
        assert total[ij] == pytest.approx(img[sl].sum(), rel=1e-12,
                                          abs=1e-9)
        assert count[ij] == np.count_nonzero(img[sl] > 0)


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
