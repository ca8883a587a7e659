"""Equiangular latitude-longitude grid and per-latitude area weights.

Latitudes are cell centers (no pole rows), so cos(lat) > 0 everywhere and the
area weights are well defined. Weights are normalized to average 1, which makes
an area-weighted mean of a constant field equal that constant regardless of
grid size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class GridSpec:
    n_lon: int
    n_lat: int
    latitudes: np.ndarray   # degrees, length n_lat, strictly increasing
    longitudes: np.ndarray  # degrees, length n_lon, starting at 0
    kind: str = "equiangular-cell-center"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)

    def to_manifest(self) -> dict:
        return {"n_lon": self.n_lon, "n_lat": self.n_lat, "kind": self.kind}

    @staticmethod
    def from_manifest(d: dict) -> "GridSpec":
        if d.get("kind", "equiangular-cell-center") != "equiangular-cell-center":
            raise ConfigError(f"unsupported grid kind: {d.get('kind')!r}")
        return make_grid(int(d["n_lon"]), int(d["n_lat"]))


@dataclass(frozen=True)
class AreaWeights:
    weights: np.ndarray  # length n_lat, mean exactly 1

    def __len__(self) -> int:
        return len(self.weights)


def make_grid(n_lon: int, n_lat: int) -> GridSpec:
    """Build the cell-center equiangular grid of n_lon x n_lat points."""
    if n_lon < 4 or n_lon % 2 != 0:
        raise ConfigError(f"n_lon must be even and >= 4, got {n_lon}")
    if n_lat < 2:
        raise ConfigError(f"n_lat must be >= 2, got {n_lat}")
    lats = -90.0 + (np.arange(n_lat) + 0.5) * (180.0 / n_lat)
    lons = np.arange(n_lon) * (360.0 / n_lon)
    return GridSpec(n_lon=n_lon, n_lat=n_lat, latitudes=lats, longitudes=lons)


def area_weights(grid: GridSpec) -> AreaWeights:
    """Per-latitude weights a_h = cos(lat_h) / mean_j cos(lat_j).

    Symmetrized so a_h == a_{H-1-h} holds bit-exactly (the floating-point
    latitudes are not perfectly mirror-symmetric)."""
    c = np.cos(np.deg2rad(grid.latitudes))
    c = 0.5 * (c + c[::-1])
    return AreaWeights(weights=c / c.mean())


def area_weighted_mean(field: np.ndarray, weights: AreaWeights) -> np.ndarray:
    """Area-weighted float64 mean over the trailing (lat, lon) axes of `field`."""
    field = np.asarray(field, np.float64)
    h = len(weights)
    if field.ndim < 2 or field.shape[-2] != h:
        raise ShapeError(f"field shape {field.shape} does not match {h} latitudes")
    w = np.asarray(weights.weights, np.float64)
    return (w[:, None] * field).mean(axis=(-2, -1))
