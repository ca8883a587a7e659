import numpy as np
import pytest

from rsl import autodiff as ad
from rsl.errors import ConfigError, ShapeError

R = np.random.default_rng(99)


def t64(shape, grad=False):
    return ad.tensor(R.standard_normal(shape), requires_grad=grad, dtype=np.float64)


# ----------------------------------------------------------- forward basics

def test_add_scalars():
    assert ad.add(ad.tensor(2.0), ad.tensor(3.0)).item() == 5.0


def test_rfft_of_delta_is_flat():
    x = ad.tensor(np.array([1.0, 0.0, 0.0, 0.0]))
    z = ad.rfft(x)
    assert np.allclose(z.data[0], 1.0) and np.allclose(z.data[1], 0.0)


def test_matmul_identity():
    a = R.standard_normal((4, 4))
    out = ad.matmul(ad.tensor(np.eye(4)), ad.tensor(a))
    assert np.allclose(out.data, a)


def test_forward_determinism():
    x = t64((6, 8))
    w = t64((8, 3))
    a = ad.matmul(ad.gelu(x), w).data
    b = ad.matmul(ad.gelu(ad.Tensor(x.data)), ad.Tensor(w.data)).data
    assert np.array_equal(a, b)


def test_nonfinite_trap():
    ad.set_nonfinite_trap(True)
    try:
        with pytest.raises(FloatingPointError, match="multiply"):
            ad.mul(ad.tensor(np.array([1e300])), ad.tensor(np.array([1e300])))
    finally:
        ad.set_nonfinite_trap(False)


# ----------------------------------------------------------- backward basics

def test_backward_square():
    x = ad.tensor(3.0, requires_grad=True, dtype=np.float64)
    ad.backward(ad.mul(x, x))
    assert x.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    x = t64((3,), grad=True)
    with pytest.raises(ShapeError):
        ad.backward(ad.scale(x, 2.0))


def test_weighted_mean_gradient_is_scaled_weights():
    w = np.array([0.5, 1.5])
    x = ad.tensor(R.standard_normal((2, 4)), requires_grad=True, dtype=np.float64)
    ad.backward(ad.lat_weighted_mean(x, w))
    assert np.allclose(x.grad, np.broadcast_to(w[:, None] / 8.0, (2, 4)))


def test_mlp_gradients_match_finite_differences():
    params = {
        "w1": t64((5, 7), grad=True), "b1": t64((7,), grad=True),
        "w2": t64((7, 4), grad=True), "b2": t64((4,), grad=True),
        "w3": t64((4, 1), grad=True),
    }
    x = t64((3, 5))

    def loss():
        h = ad.gelu(ad.add(ad.matmul(x, params["w1"]), params["b1"]))
        h = ad.gelu(ad.add(ad.matmul(h, params["w2"]), params["b2"]))
        out = ad.matmul(h, params["w3"])
        return ad.mean_(ad.mul(out, out))

    assert ad.check_gradients(loss, params, eps=1e-3) < 1e-4


# ----------------------------------------------------------- adjoint tests

def _dot(a, b):
    return float(np.sum(np.asarray(a, np.float64) * np.asarray(b, np.float64)))


LINEAR_OPS = [
    ("add-left", (3, 4), lambda x, b=t64((3, 4)): ad.add(x, b)),
    ("subtract", (3, 4), lambda x, b=t64((3, 4)): ad.sub(x, b)),
    ("scalar-scale", (5,), lambda x: ad.scale(x, -1.7)),
    ("matmul", (4, 5), lambda x, b=t64((5, 3)): ad.matmul(x, b)),
    ("reshape", (4, 6), lambda x: ad.reshape(x, (2, 12))),
    ("permute-axes", (2, 3, 4), lambda x: ad.transpose(x, (2, 0, 1))),
    ("slice", (5, 6), lambda x: ad.narrow(x, 1, 2, 3)),
    ("concat", (2, 3), lambda x, b=t64((2, 3)): ad.concat([x, b], axis=0)),
    ("sum", (4, 3), lambda x: ad.sum_(x, axis=0)),
    ("mean", (4, 3), lambda x: ad.mean_(x, axis=1)),
    ("weighted-mean", (2, 4, 6), lambda x: ad.lat_weighted_mean(x, np.array([0.6, 1.4, 1.1, 0.9]))),
    ("embedding-lookup", (6, 3), lambda x: ad.gather(x, np.array([0, 2, 2, 5]))),
    ("linear-contraction", (3, 5), lambda x, w=t64((4, 5)): ad.einsum("ij,bj->bi", w, x)),
    ("real-FFT-1d", (3, 8), lambda x: ad.rfft(x)),
    ("real-FFT-1d-odd", (3, 7), lambda x: ad.rfft(x)),
    ("inverse-real-FFT-1d", (2, 3, 5), lambda x: ad.irfft(x, 8)),
    ("inverse-real-FFT-1d-odd", (2, 3, 4), lambda x: ad.irfft(x, 7)),
    ("real-FFT-2d", (2, 4, 6), lambda x: ad.rfft2(x)),
    ("inverse-real-FFT-2d", (2, 3, 4, 4), lambda x: ad.irfft2(x, (4, 6))),
]


@pytest.mark.parametrize("name,shape,op", LINEAR_OPS, ids=[o[0] for o in LINEAR_OPS])
def test_linear_op_adjoint_consistency(name, shape, op):
    # <T x, y> == <x, T* y> for the linear part of each op (op(x) - op(0)
    # strips the constant operand of affine cases like add).
    x = t64(shape, grad=True)
    y = op(x)
    with ad.no_grad():
        y0 = op(ad.Tensor(np.zeros(shape)))
    cot = R.standard_normal(y.shape)
    lhs = _dot(y.data - y0.data, cot)
    x.grad = None
    y._vjp(cot)
    rhs = _dot(x.data, x.grad)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_complex_multiply_matches_complex_arithmetic():
    ar, ai, br, bi = (t64((4, 4)) for _ in range(4))
    re, im = ad.complex_mul(ar, ai, br, bi)
    za = ar.data + 1j * ai.data
    zb = br.data + 1j * bi.data
    assert np.allclose(re.data + 1j * im.data, za * zb)


# ----------------------------------------------------------- FFT round trips

def test_fft_roundtrip_float32():
    x = ad.tensor(R.standard_normal((5, 16)).astype(np.float32))
    y = ad.irfft(ad.rfft(x), 16)
    assert y.dtype == np.float32
    rel = np.abs(y.data - x.data).max() / np.abs(x.data).max()
    assert rel < 1e-6


def test_fft_roundtrip_float64():
    x = t64((5, 16))
    y = ad.irfft(ad.rfft(x), 16)
    rel = np.abs(y.data - x.data).max() / np.abs(x.data).max()
    assert rel < 1e-12


def test_fft2_roundtrip():
    x = ad.tensor(R.standard_normal((2, 6, 8)).astype(np.float32))
    y = ad.irfft2(ad.rfft2(x), (6, 8))
    assert np.abs(y.data - x.data).max() < 1e-6


# ----------------------------------------------------------- gradient checks

def test_check_gradients_linear_map_is_roundoff():
    w = t64((6, 6), grad=True)
    x = t64((2, 6))
    tgt = t64((2, 6))
    err = ad.check_gradients(
        lambda: ad.sum_(ad.mul(ad.matmul(x, w), tgt)), {"w": w}, eps=1e-4)
    assert err < 1e-9


def test_check_gradients_softshrink_away_from_kink():
    lam, eps = 0.1, 1e-4
    vals = R.standard_normal((4, 5))
    vals[np.abs(np.abs(vals) - lam) < 10 * eps] += 0.5   # keep off the kink
    x = ad.Tensor(vals, requires_grad=True)

    def loss():
        return ad.sum_(ad.softshrink(x, lam))

    assert ad.check_gradients(loss, {"x": x}, eps=eps) < 1e-5


def test_check_gradients_gelu():
    x = t64((4, 5), grad=True)
    assert ad.check_gradients(lambda: ad.sum_(ad.gelu(x)), {"x": x}, eps=1e-4) < 1e-5


def test_check_gradients_softmax_layernorm():
    g = t64((6,), grad=True)
    b = t64((6,), grad=True)
    x = t64((3, 6), grad=True)
    probe = t64((3, 6))

    def loss():
        return ad.sum_(ad.mul(ad.softmax(ad.layer_norm(x, g, b), -1), probe))

    assert ad.check_gradients(loss, {"x": x, "g": g, "b": b}, eps=1e-5) < 1e-5


# ----------------------------------------------------------- no-grad / free

def test_no_grad_builds_no_graph():
    x = t64((3,), grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad


def test_graph_freed_after_backward():
    x = t64((3,), grad=True)
    y = ad.sum_(ad.mul(x, x))
    ad.backward(y, free_graph=True)
    assert y._vjp is None and y._parents == ()
    assert x.grad is not None


# ----------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bitexact(tmp_path):
    params = {
        "layer.weight": ad.tensor(R.standard_normal((7, 3)).astype(np.float32)),
        "bias": ad.tensor(R.standard_normal(11).astype(np.float32)),
    }
    path = tmp_path / "m.ckpt"
    ad.save_checkpoint(params, path)
    assert path.read_bytes().startswith(b"RSL-CKPT-1\n")
    loaded = ad.load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k].data)


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not-a-checkpoint")
    with pytest.raises(ConfigError, match="bad magic"):
        ad.load_checkpoint(p)


def test_checkpoint_rejects_truncated_or_padded_blob(tmp_path):
    p = tmp_path / "m.ckpt"
    ad.save_checkpoint({"w": ad.tensor(np.ones((4, 3), np.float32))}, p)
    whole = p.read_bytes()
    for bad in (whole[:-4], whole + b"\0\0\0\0", whole[:-2]):
        p.write_bytes(bad)
        with pytest.raises(ConfigError, match="truncated or corrupt"):
            ad.load_checkpoint(p)
