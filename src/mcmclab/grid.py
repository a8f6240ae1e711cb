"""Riemann-sum estimation of posterior integrals on rectangular grids.

Cells are cuboids built from per-axis edge lists; each cell contributes its
midpoint density times its volume.  Accumulation happens in log space so
that high-dimensional or sharply peaked targets do not underflow.  The
expectation is ``is_expectation`` with the cell weights as importance
weights.  A NaN or ``+inf`` log density raises ``NumericalError``.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .importance import WeightedSamples, is_expectation
from .targets import _log_densities, _log_sum_exp

__all__ = [
    "GridSpec",
    "GridCells",
    "build_grid",
    "grid_evidence",
    "grid_log_weights",
    "grid_weights",
    "grid_expectation",
    "MAX_GRID_CELLS",
]

# Guard against accidentally materializing curse-of-dimensionality grids.
MAX_GRID_CELLS = 10 ** 8


def _validate_edges(edges: np.ndarray) -> np.ndarray:
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("each axis needs at least two edges (one cell)")
    if not np.all(np.isfinite(edges)):
        raise ValueError("grid edges must be finite")
    if not np.all(np.diff(edges) > 0):
        raise ValueError("grid edges must be strictly increasing")
    return edges


@dataclass(frozen=True)
class GridSpec:
    """Axis definitions for a rectangular grid.

    ``edges`` holds one strictly increasing edge array per dimension;
    ``regular`` builds uniform axes.
    """

    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(_validate_edges(e) for e in self.edges))

    @classmethod
    def regular(cls, bounds, cells) -> "GridSpec":
        """Uniform grid: ``bounds`` is a list of (lo, hi); ``cells`` an int
        or one int per dimension."""
        bounds = list(bounds)
        if np.isscalar(cells):
            cells = [cells] * len(bounds)
        edges = []
        for (lo, hi), k in zip(bounds, cells, strict=True):
            lo, hi, k = float(lo), float(hi), int(k)
            if k < 1:
                raise ValueError("cell count must be >= 1")
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
                raise ValueError("axis bounds must be finite with upper > lower")
            edges.append(np.linspace(lo, hi, k + 1))
        return cls(tuple(edges))

    @property
    def dim(self) -> int:
        return len(self.edges)

    @property
    def n_cells(self) -> int:
        return int(np.prod([e.size - 1 for e in self.edges], dtype=object))


@dataclass(frozen=True)
class GridCells:
    """Materialized grid: cell midpoints and volumes in row-major order."""

    midpoints: np.ndarray  # (n, d)
    volumes: np.ndarray    # (n,)

    @property
    def dim(self) -> int:
        return self.midpoints.shape[1]

    @property
    def n_cells(self) -> int:
        return self.midpoints.shape[0]

    @property
    def total_volume(self) -> float:
        return float(self.volumes.sum())


def build_grid(spec: GridSpec) -> GridCells:
    """Expand a spec into midpoints and volumes (midpoint rule).

    Refuses to materialize more than ``MAX_GRID_CELLS`` cells.
    """
    if spec.n_cells > MAX_GRID_CELLS:
        raise ResourceLimitError(
            f"grid would have {spec.n_cells} cells (limit {MAX_GRID_CELLS})"
        )
    return GridCells(
        midpoints=_cell_midpoints(spec.edges), volumes=_cell_volumes(spec.edges).ravel()
    )


def _cell_midpoints(edges) -> np.ndarray:
    """Midpoints ``(n, d)`` of the cell lattice of per-axis edges, row-major."""
    mids = [(e[:-1] + e[1:]) / 2.0 for e in edges]
    mesh = np.meshgrid(*mids, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _cell_volumes(edges) -> np.ndarray:
    """Volumes of the same lattice, shaped as cells per axis."""
    vol = np.diff(edges[0])
    for e in edges[1:]:
        vol = np.multiply.outer(vol, np.diff(e))
    return vol


def grid_log_weights(target, cells: GridCells) -> np.ndarray:
    """Per-cell ``log(density * volume)``; the building block of the sums.

    A NaN or ``+inf`` log density raises ``NumericalError``, naming its cell.
    """
    return _log_densities(target, cells.midpoints) + np.log(cells.volumes)


def grid_weights(target, cells: GridCells) -> np.ndarray:
    """Per-cell weights ``density(midpoint) * volume`` on a linear scale."""
    return np.exp(grid_log_weights(target, cells))


def grid_evidence(target, cells: GridCells) -> float:
    """Riemann-sum estimate of the integral of the unnormalized density.

    Returns 0.0 (with a warning) when every cell lands on zero density,
    which usually means the grid misses the support entirely.
    """
    lw = grid_log_weights(target, cells)
    if np.all(np.isneginf(lw)):
        warnings.warn(
            "all grid cells have zero density; evidence estimate is 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return float(np.exp(_log_sum_exp(lw)))


def grid_expectation(target, cells: GridCells, f):
    """Self-normalized grid estimate of the expectation of ``f``.

    ``f`` receives the full ``(n, d)`` array of midpoints and returns either
    an ``(n,)`` array (scalar integrand) or an ``(n, m)`` array.  The cell
    weights cancel in normalization, so the unnormalized density suffices.
    """
    return is_expectation(WeightedSamples(cells.midpoints, grid_log_weights(target, cells)), f)
