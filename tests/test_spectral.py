import numpy as np
import pytest

from rsl import autodiff as ad
from rsl.errors import ConfigError, ShapeError
from rsl.grid import area_weighted_mean, area_weights, make_grid
from rsl.spectral import (plan_sht, sht_forward, sht_forward_t, sht_inverse,
                          sht_inverse_t, spectral_energy, synthesize_random)

SQRT_4PI = np.sqrt(4.0 * np.pi)


@pytest.fixture(scope="module")
def plan16():
    return plan_sht(make_grid(32, 16))


# --------------------------------------------------------------- plan sizing

def test_plan_paper_grid_truncation():
    plan = plan_sht(make_grid(64, 32), 1.0)
    assert plan.lmax == 31
    assert plan.mmax == 31          # floor(64/2) = 32 clipped to lmax


def test_plan_small_grid():
    plan = plan_sht(make_grid(8, 4), 1.0)
    assert plan.lmax == 3 and plan.mmax == 3


def test_plan_half_fraction():
    assert plan_sht(make_grid(64, 32), 0.5).lmax == 15


@pytest.mark.parametrize("frac", [0.0, -0.2, 1.5])
def test_plan_rejects_bad_fraction(frac):
    with pytest.raises(ConfigError):
        plan_sht(make_grid(8, 4), frac)


def test_table_orthonormal_under_quadrature(plan16):
    tab, q = plan16.legendre_table, plan16.quadrature_weights
    worst = 0.0
    for m in range(plan16.mmax + 1):
        p = tab[m:, m, :]
        gram = (p * q) @ p.T
        worst = max(worst, np.abs(gram - np.eye(len(gram))).max())
    assert worst < 1e-6


# --------------------------------------------------------------- transforms

def test_constant_field_maps_to_a00(plan16):
    c = sht_forward(np.ones(plan16.grid.shape), plan16)
    assert abs(c[0, 0] - SQRT_4PI) < 1e-6
    mask = np.ones(c.shape, bool)
    mask[0, 0] = False
    assert np.abs(c[mask]).max() < 1e-6


def test_sin_lat_field_is_single_mode():
    # sin(lat) = sqrt(4pi/3) * Y_10; with the discretely orthonormalized
    # table every other coefficient vanishes exactly, and the a_10 value
    # matches the analytic one to the accuracy of the latitude quadrature
    # (O(1/H^2), about 4e-4 on the 64x32 grid).
    plan = plan_sht(make_grid(64, 32))
    field = np.tile(np.sin(np.deg2rad(plan.grid.latitudes))[:, None], (1, 64))
    c = sht_forward(field, plan)
    expect = np.sqrt(4.0 * np.pi / 3.0)
    assert c[1, 0].real == pytest.approx(expect, rel=2e-3)
    mask = np.ones(c.shape, bool)
    mask[1, 0] = False
    assert np.abs(c[mask]).max() < 1e-6 * expect


def test_zero_coefficients_give_zero_field(plan16):
    c = np.zeros((plan16.lmax + 1, plan16.mmax + 1), complex)
    assert np.all(sht_inverse(c, plan16) == 0.0)


def test_roundtrip_band_limited_64bit(plan16, rng):
    c, field = synthesize_random(plan16, rng)
    back = sht_forward(field, plan16)
    assert np.abs(back - c).max() / np.abs(c).max() < 1e-10


def test_roundtrip_band_limited_32bit(plan16, rng):
    c, field = synthesize_random(plan16, rng)
    f32 = field.astype(np.float32)
    c1 = sht_forward(f32, plan16)
    f2 = sht_inverse(c1, plan16).astype(np.float32)
    c2 = sht_forward(f2, plan16)
    assert np.abs(c2 - c1).max() / np.abs(c1).max() < 1e-6


def test_m0_coefficients_real_for_real_fields(plan16, rng):
    field = rng.standard_normal(plan16.grid.shape)
    c = sht_forward(field, plan16)
    assert np.abs(c[:, 0].imag).max() < 1e-6 * np.abs(c).max()


def test_parseval_matches_area_weighted_mean(plan16, rng):
    c, field = synthesize_random(plan16, rng)
    w = area_weights(plan16.grid)
    lhs = area_weighted_mean(field ** 2, w)
    rhs = spectral_energy(c, plan16)
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_longitude_shift_phases_coefficients(plan16, rng):
    c, field = synthesize_random(plan16, rng)
    k = 5
    shifted = np.roll(field, k, axis=-1)
    cs = sht_forward(shifted, plan16)
    phase = np.exp(-1j * np.arange(plan16.mmax + 1) * 2 * np.pi * k / plan16.grid.n_lon)
    assert np.abs(cs - c * phase[None, :]).max() / np.abs(c).max() < 1e-5


def test_transforms_linear(plan16, rng):
    f = rng.standard_normal(plan16.grid.shape)
    g = rng.standard_normal(plan16.grid.shape)
    lhs = sht_forward(2.5 * f - 1.5 * g, plan16)
    rhs = 2.5 * sht_forward(f, plan16) - 1.5 * sht_forward(g, plan16)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(rhs).max(), 1.0)


def test_forward_rejects_wrong_shape(plan16):
    with pytest.raises(ShapeError):
        sht_forward(np.zeros((4, 8)), plan16)
    with pytest.raises(ShapeError):
        sht_inverse(np.zeros((2, 2), complex), plan16)


# --------------------------------------------------------------- autodiff path

def test_differentiable_path_matches_numpy(plan16, rng):
    f = rng.standard_normal((3, 16, 32))
    ct = sht_forward_t(ad.Tensor(f), plan16)
    cn = sht_forward(f, plan16)
    assert np.abs((ct.data[0] + 1j * ct.data[1]) - cn).max() < 1e-10
    ft = sht_inverse_t(ct, plan16)
    fn = sht_inverse(cn, plan16)
    assert np.abs(ft.data - fn).max() < 1e-10


def test_differentiable_transforms_adjoint(plan16, rng):
    x = ad.Tensor(rng.standard_normal((16, 32)), requires_grad=True)
    y = sht_forward_t(x, plan16)
    cot = rng.standard_normal(y.shape)
    lhs = float((y.data * cot).sum())
    ad.backward(ad.sum_(ad.mul(y, ad.Tensor(cot))))
    rhs = float((x.data * x.grad).sum())
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_differentiable_roundtrip_gradcheck(rng):
    plan = plan_sht(make_grid(8, 4))
    x = ad.Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    probe = ad.Tensor(rng.standard_normal((4, 8)))

    def loss():
        return ad.sum_(ad.mul(sht_inverse_t(sht_forward_t(x, plan), plan), probe))

    assert ad.check_gradients(loss, {"x": x}, eps=1e-5) < 1e-7
