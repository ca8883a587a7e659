"""Spherical harmonics transform on the equiangular grid.

Conventions:
  * Orthonormal harmonics: Y_00 = 1/sqrt(4*pi), so a constant field 1 maps to
    a_00 = sqrt(4*pi).
  * Coefficients are stored as complex arrays indexed [l, m] with
    0 <= m <= mmax, m <= l <= lmax; entries with m > l are structurally zero.
  * A real field is recovered with m > 0 terms doubled (Hermitian convention).

The latitude quadrature uses weights proportional to cos(lat) (summing to
4*pi), i.e. the same measure as the area weights, which makes the Parseval
identity against `grid.area_weighted_mean` exact. On cell-center equiangular
latitudes no diagonal quadrature makes the recurrence table orthonormal much
beyond degree H/2, so the Legendre table is orthonormalized against the
discrete inner product (per-m Cholesky correction). Analysis-then-synthesis
is then the exact identity on coefficients for every l <= lmax, at the cost
of table rows at high degree deviating from the continuous functions by the
quadrature error; rows up to about degree H/2 are essentially unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .grid import GridSpec, area_weights


@dataclass(frozen=True)
class SHTPlan:
    grid: GridSpec
    lmax: int
    mmax: int
    lmax_exact: int              # tests assert continuum-accuracy only up to here
    legendre_table: np.ndarray   # (lmax+1, mmax+1, H) float64, zero for m > l
    quadrature_weights: np.ndarray  # (H,) float64, sum 4*pi

    @property
    def n_coeffs(self) -> int:
        return sum(self.lmax - m + 1 for m in range(self.mmax + 1))


def _legendre_recurrence(lmax: int, mmax: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal associated Legendre values P̄_lm(x) via the standard
    three-term recurrence (no Condon-Shortley phase), in float64."""
    h = len(x)
    tab = np.zeros((lmax + 1, mmax + 1, h))
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    pmm = np.full(h, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(mmax + 1):
        if m > 0:
            pmm = pmm * sx * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        tab[m, m] = pmm
        if m + 1 <= lmax:
            tab[m + 1, m] = np.sqrt(2.0 * m + 3.0) * x * pmm
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            tab[l, m] = a * (x * tab[l - 1, m] - b * tab[l - 2, m])
    return tab


def plan_sht(grid: GridSpec, hard_threshold_fraction: float = 1.0) -> SHTPlan:
    """Precompute Legendre tables and quadrature for the given grid.

    lmax = floor(fraction * (H-1)); mmax = floor(fraction * W/2) clipped to
    lmax (coefficients exist only for m <= l).
    """
    if not 0.0 < hard_threshold_fraction <= 1.0:
        raise ConfigError(
            f"hard_threshold_fraction must be in (0, 1], got {hard_threshold_fraction}")
    h, w = grid.n_lat, grid.n_lon
    lmax = int(np.floor(hard_threshold_fraction * (h - 1)))
    mmax = min(int(np.floor(hard_threshold_fraction * (w // 2))), lmax)
    x = np.sin(np.deg2rad(grid.latitudes))
    # Exactly proportional to the area weights, so the Parseval identity
    # against area_weighted_mean holds to round-off.
    q = 4.0 * np.pi * area_weights(grid).weights / h
    tab = _legendre_recurrence(lmax, mmax, x)
    # Per-m Cholesky correction: rows become exactly orthonormal under q.
    for m in range(mmax + 1):
        p = tab[m : lmax + 1, m, :]
        gram = (p * q) @ p.T
        chol = np.linalg.cholesky(gram)
        tab[m : lmax + 1, m, :] = np.linalg.solve(chol, p)
    return SHTPlan(grid=grid, lmax=lmax, mmax=mmax,
                   lmax_exact=(2 * h) // 3, legendre_table=tab,
                   quadrature_weights=q)


def _m_doubling(plan: SHTPlan) -> np.ndarray:
    """Parseval weights per m: 2 for interior orders, 1 for m=0 and Nyquist."""
    d = np.full(plan.mmax + 1, 2.0)
    d[0] = 1.0
    if plan.mmax == plan.grid.n_lon // 2:
        d[-1] = 1.0
    return d


# ------------------------------------------------------------ numpy transforms

def sht_forward(field: np.ndarray, plan: SHTPlan) -> np.ndarray:
    """Analysis: (..., H, W) real -> (..., lmax+1, mmax+1) complex."""
    field = np.asarray(field)
    if field.shape[-2:] != plan.grid.shape:
        raise ShapeError(f"field shape {field.shape} vs grid {plan.grid.shape}")
    w = plan.grid.n_lon
    fm = np.fft.rfft(field.astype(np.float64), axis=-1)[..., : plan.mmax + 1] / w
    return np.einsum("lmh,...hm->...lm", plan.legendre_table * plan.quadrature_weights,
                     fm, optimize=True)


def sht_inverse(coeffs: np.ndarray, plan: SHTPlan) -> np.ndarray:
    """Synthesis: (..., lmax+1, mmax+1) complex -> (..., H, W) real."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-2:] != (plan.lmax + 1, plan.mmax + 1):
        raise ShapeError(
            f"coeff shape {coeffs.shape} vs plan ({plan.lmax + 1}, {plan.mmax + 1})")
    w = plan.grid.n_lon
    gm = np.einsum("lmh,...lm->...hm", plan.legendre_table, coeffs, optimize=True)
    full = np.zeros(gm.shape[:-1] + (w // 2 + 1,), dtype=np.complex128)
    full[..., : plan.mmax + 1] = gm * w
    return np.fft.irfft(full, n=w, axis=-1)


def spectral_energy(coeffs: np.ndarray, plan: SHTPlan) -> float:
    """(1/4pi) * sum |a_lm|^2 with m>0 doubling; equals the area-weighted
    mean of the squared synthesized field."""
    d = _m_doubling(plan)
    return float(np.sum(np.abs(coeffs) ** 2 * d) / (4.0 * np.pi))


def synthesize_random(plan: SHTPlan, rng: np.random.Generator,
                      lmax_band: int | None = None,
                      spectrum: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Random band-limited coefficients (and field) up to lmax_band."""
    lb = plan.lmax_exact if lmax_band is None else lmax_band
    c = np.zeros((plan.lmax + 1, plan.mmax + 1), dtype=np.complex128)
    for l in range(lb + 1):
        amp = 1.0 if spectrum is None else spectrum[l]
        for m in range(min(l, plan.mmax) + 1):
            re = rng.standard_normal()
            im = 0.0 if m == 0 else rng.standard_normal()
            c[l, m] = amp * (re + 1j * im)
    return c, sht_inverse(c, plan)


# ------------------------------------------------------------ differentiable

def _fold_lead(shape: tuple) -> tuple[int, int]:
    """Fold leading dims to (p, q); q is the innermost leading dim so that the
    Legendre contraction runs as a batched (q, H) x (H, L) matmul."""
    if not shape:
        return 1, 1
    q = shape[-1]
    p = int(np.prod(shape[:-1])) if len(shape) > 1 else 1
    return p, q


def sht_forward_t(x: ad.Tensor, plan: SHTPlan) -> ad.Tensor:
    """Differentiable analysis of (..., H, W) -> (2, ..., lmax+1, mmax+1)."""
    w = plan.grid.n_lon
    lead = x.shape[:-2]
    h, mm = plan.grid.n_lat, plan.mmax + 1
    p, q = _fold_lead(lead)
    # (M+1, H, L+1) analysis matrices, quadrature and 1/W folded in
    qtab = np.ascontiguousarray(
        np.transpose(plan.legendre_table * plan.quadrature_weights / w, (1, 2, 0))
    ).astype(x.dtype)
    z = ad.narrow(ad.rfft(ad.reshape(x, (p, q, h, x.shape[-1]))), -1, 0, mm)
    zt = ad.transpose(z, (0, 1, 4, 2, 3))                # (2, p, M, q, H)
    a = ad.matmul(zt, ad.tensor(qtab))                   # (2, p, M, q, L)
    at = ad.transpose(a, (0, 1, 3, 4, 2))                # (2, p, q, L, M)
    return ad.reshape(at, (2,) + lead + (plan.lmax + 1, mm))


def sht_inverse_t(c: ad.Tensor, plan: SHTPlan) -> ad.Tensor:
    """Differentiable synthesis of (2, ..., lmax+1, mmax+1) -> (..., H, W)."""
    w = plan.grid.n_lon
    lead = c.shape[1:-2]
    h, mm = plan.grid.n_lat, plan.mmax + 1
    p, q = _fold_lead(lead)
    stab = np.ascontiguousarray(
        np.transpose(plan.legendre_table * w, (1, 0, 2))).astype(c.dtype)  # (M, L, H)
    ct = ad.transpose(ad.reshape(c, (2, p, q, plan.lmax + 1, mm)),
                      (0, 1, 4, 2, 3))                   # (2, p, M, q, L)
    g = ad.matmul(ct, ad.tensor(stab))                   # (2, p, M, q, H)
    gm = ad.transpose(g, (0, 1, 3, 4, 2))                # (2, p, q, H, M)
    nb = w // 2 + 1
    if mm < nb:
        pad = np.zeros(gm.shape[:-1] + (nb - mm,), dtype=gm.dtype)
        gm = ad.concat([gm, ad.tensor(pad)], axis=-1)
    y = ad.irfft(gm, w)
    return ad.reshape(y, lead + (h, w))
