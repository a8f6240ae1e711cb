"""Riemann-sum estimation of posterior integrals on rectangular grids.

Cells are cuboids built from per-axis edge lists; each cell contributes its
midpoint density times its volume.  Accumulation happens in log space so
that high-dimensional or sharply peaked targets do not underflow.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import NumericalError, ResourceLimitError

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

    ``axes`` holds one item per dimension: either a ``(lower, upper, cells)``
    triple for a uniform axis or an explicit strictly increasing edge list
    for a nonuniform one.
    """

    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "_edges", tuple(self._build_edges()))

    def _build_edges(self):
        edges = []
        for axis in self.axes:
            # a (lo, hi, cells) triple is a tuple/list whose third entry is
            # an integer; arrays and float lists are explicit edge lists
            if (
                isinstance(axis, (tuple, list))
                and len(axis) == 3
                and isinstance(axis[2], (int, np.integer))
            ):
                lo, hi, k = float(axis[0]), float(axis[1]), int(axis[2])
                if k < 1:
                    raise ValueError("cell count must be >= 1")
                if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
                    raise ValueError("axis bounds must be finite with upper > lower")
                edges.append(np.linspace(lo, hi, k + 1))
            else:
                edges.append(_validate_edges(np.asarray(axis, dtype=float)))
        return edges

    @classmethod
    def regular(cls, bounds, cells) -> "GridSpec":
        """Uniform grid: ``bounds`` is a list of (lo, hi); ``cells`` an int
        or one int per dimension."""
        bounds = list(bounds)
        if np.isscalar(cells):
            cells = [int(cells)] * len(bounds)
        return cls(tuple((lo, hi, k) for (lo, hi), k in zip(bounds, cells)))

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def dim(self) -> int:
        return len(self._edges)

    @property
    def n_cells(self) -> int:
        return int(np.prod([e.size - 1 for e in self._edges], dtype=object))


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
    mids = [(e[:-1] + e[1:]) / 2.0 for e in spec.edges]
    widths = [np.diff(e) for e in spec.edges]
    mesh = np.meshgrid(*mids, indexing="ij")
    midpoints = np.stack([m.ravel() for m in mesh], axis=1)
    vol = widths[0]
    for w in widths[1:]:
        vol = np.multiply.outer(vol, w)
    return GridCells(midpoints=midpoints, volumes=vol.ravel())


def _check_dims(target, cells: GridCells):
    if cells.dim != target.dim:
        raise ValueError(f"grid dim {cells.dim} != target dim {target.dim}")


def grid_log_weights(target, cells: GridCells) -> np.ndarray:
    """Per-cell ``log(density * volume)``; the building block of the sums."""
    _check_dims(target, cells)
    return target.log_density_many(cells.midpoints) + np.log(cells.volumes)


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
    return float(np.exp(logsumexp(lw)))


def grid_expectation(target, cells: GridCells, f):
    """Self-normalized grid estimate of the expectation of ``f``.

    ``f`` receives the full ``(n, d)`` array of midpoints and returns either
    an ``(n,)`` array (scalar integrand) or an ``(n, m)`` array.  The cell
    weights cancel in normalization, so the unnormalized density suffices.
    """
    lw = grid_log_weights(target, cells)
    if np.all(np.isneginf(lw)):
        raise NumericalError("zero total mass on grid; expectation undefined")
    w = np.exp(lw - lw.max())
    fx = np.asarray(f(cells.midpoints), dtype=float)
    if fx.shape[0] != cells.n_cells:
        raise ValueError("f must return one row per midpoint")
    if fx.ndim == 1:
        return float((w * fx).sum() / w.sum())
    return (w[:, None] * fx).sum(axis=0) / w.sum()
