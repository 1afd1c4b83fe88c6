"""The square ROI tiling shared by planners, capture and scoring.

``RoiGrid.parts()`` with ``RoiGrid.blocks()`` is the one way to walk the
ROIs: at most four groups of same-shape blocks, each a strided view of the
frame.  Per-ROI reductions, the per-pixel expansion of a grid, the capture
kernel, the compositor and evaluate's chunk loop all go through it."""

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

    def reduce(self, arr, fn) -> np.ndarray:
        """One value per ROI: ``fn(..., axis=-1)`` over that ROI's own
        pixels of ``arr`` in row-major order, so the sum over an ROI adds its
        pixels in the order ``np.sum`` of a copy of that ROI does."""
        arr = np.asarray(arr)
        if arr.shape != (self.height, self.width):
            raise ShapeError(f"image {arr.shape} does not match a {self.height}"
                             f"x{self.width} ROI grid")
        out = None
        for rs, cs, (bh, bw) in self.parts():
            blocks = self.blocks(arr, rs, cs, (bh, bw))
            vals = fn(blocks.reshape(*blocks.shape[:2], bh * bw), axis=-1)
            if out is None:
                out = np.empty(self.shape, vals.dtype)
            out[rs, cs] = vals
        return out

    def expand(self, grid) -> np.ndarray:
        """Read-only per-pixel array holding each ROI's value over its
        footprint."""
        grid = self.check(grid, "ROI")
        out = np.empty((self.height, self.width), grid.dtype)
        for rs, cs, shape in self.parts():
            self.blocks(out, rs, cs, shape)[...] = grid[rs, cs, None, None]
        out.flags.writeable = False
        return out
