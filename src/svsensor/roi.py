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

    def check(self, grid, what: str) -> np.ndarray:
        """``grid`` as an array, or ShapeError if it is not one value per
        ROI."""
        grid = np.asarray(grid)
        if grid.shape != self.shape:
            raise ShapeError(
                f"{what} grid {grid.shape} does not cover a {self.height}x"
                f"{self.width} image at roi_size={self.size}")
        return grid

    def expand(self, grid) -> np.ndarray:
        """Per-pixel array holding each ROI's value over its footprint."""
        full = np.repeat(np.repeat(self.check(grid, "ROI"), self.size, axis=0),
                         self.size, axis=1)
        return full[:self.height, :self.width]
