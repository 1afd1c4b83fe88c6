"""The square ROI tiling shared by planners, capture and scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class RoiGrid:
    """Row-major tiling of a ``height`` x ``width`` image into ``size`` x
    ``size`` ROIs; ROIs on the bottom and right edges are clipped to the
    image."""

    height: int
    width: int
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError("roi_size must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        """ROI rows and columns."""
        return -(-self.height // self.size), -(-self.width // self.size)

    def slices(self):
        """Yield ((roi_row, roi_col), (row slice, column slice))."""
        r = self.size
        rows, cols = self.shape
        for i in range(rows):
            for j in range(cols):
                yield (i, j), (slice(i * r, min((i + 1) * r, self.height)),
                               slice(j * r, min((j + 1) * r, self.width)))

    def parts(self):
        """The ROIs in at most four groups of one block shape each: yield
        (ROI row slice, ROI column slice, (block height, block width)) for
        the full ROIs, the clipped right column, the clipped bottom row and
        the clipped corner."""
        (rows, cols), r = self.shape, self.size
        row_parts = ((slice(0, self.height // r), r),
                     (slice(self.height // r, rows), self.height % r))
        col_parts = ((slice(0, self.width // r), r),
                     (slice(self.width // r, cols), self.width % r))
        for rs, bh in row_parts:
            for cs, bw in col_parts:
                if rs.start < rs.stop and cs.start < cs.stop:
                    yield rs, cs, (bh, bw)

    def blocks(self, image: np.ndarray, rs: slice, cs: slice, shape,
               k: int = 1) -> np.ndarray:
        """(ROI rows, ROI columns, h, w) view of the h x w blocks of
        ``image``, a view of the frame with one pixel per k x k superpixel,
        for the ROIs ``rs`` x ``cs`` (one group of ``parts()``).  ROI (i, j)
        starts at row ``i * size // k`` and column ``j * size // k``."""
        (bh, bw), step = shape, self.size // k
        nr, nc = rs.stop - rs.start, cs.stop - cs.start
        top, left = rs.start * step, cs.start * step
        return image[top:top + nr * bh, left:left + nc * bw].reshape(
            nr, bh, nc, bw).swapaxes(1, 2)

    def check(self, grid, what: str) -> np.ndarray:
        """``grid`` as an array, or ShapeError if it is not one value per
        ROI."""
        grid = np.asarray(grid)
        if grid.shape != self.shape:
            raise ShapeError(
                f"{what} grid {grid.shape} does not cover a {self.height}x"
                f"{self.width} image at roi_size={self.size}")
        return grid

    def reduce(self, arr, fn, fill) -> np.ndarray:
        """One value per ROI: ``fn(..., axis=-1)`` over each ROI's pixels of
        ``arr`` in row-major order, the edge ROIs padded with ``fill`` to
        full size (``np.max`` with ``-inf``, ``np.sum`` with 0).  Each ROI
        is one contiguous run, so the sum over an ROI inside the frame adds
        its pixels in the order ``np.sum`` of a copy of that ROI does."""
        arr = np.asarray(arr)
        if arr.shape != (self.height, self.width):
            raise ShapeError(f"image {arr.shape} does not match a {self.height}"
                             f"x{self.width} ROI grid")
        (rows, cols), r = self.shape, self.size
        if (rows * r, cols * r) != arr.shape:
            arr = np.pad(arr, ((0, rows * r - self.height),
                               (0, cols * r - self.width)),
                         constant_values=fill)
        blocks = arr.reshape(rows, r, cols, r).swapaxes(1, 2)
        return fn(blocks.reshape(rows, cols, r * r), axis=-1)

    def expand(self, grid) -> np.ndarray:
        """Read-only per-pixel array holding each ROI's value over its
        footprint."""
        full = self.check(grid, "ROI")
        for axis, n in ((0, self.height), (1, self.width)):
            # each ROI row (column) repeated over the pixels it covers
            edges = np.minimum(np.arange(full.shape[axis] + 1) * self.size, n)
            full = np.repeat(full, np.diff(edges), axis=axis)
        full.flags.writeable = False
        return full
