"""Dense tensor engine with reverse-mode automatic differentiation.

Values live in numpy buffers (float32 for training, float64 for oracles and
gradient checks). Each operation builds the output eagerly and registers a
closure computing the vector-Jacobian product for its inputs; `backward` runs
the closures once in reverse topological order. All reductions use numpy's
fixed sequential/pairwise order, so repeated evaluation of the same graph is
bit-identical.

Complex data is represented as paired real/imaginary channels: the FFT ops
return/consume tensors with a leading axis of size 2 (re, im), and complex
arithmetic is composed from real ops.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NonFiniteError, ShapeError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# When True, no graph is recorded (inference mode).
_no_grad = False

# When True, every op output is checked for NaN/Inf and the offending op is named.
_trap_nonfinite = False


class no_grad:
    """Context manager disabling graph construction."""

    def __enter__(self):
        global _no_grad
        self._prev = _no_grad
        _no_grad = True

    def __exit__(self, *exc):
        global _no_grad
        _no_grad = self._prev


def set_nonfinite_trap(enabled: bool) -> None:
    global _trap_nonfinite
    _trap_nonfinite = enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), vjp: Callable | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and not _no_grad
        self.op = op
        self._parents = parents if self.requires_grad else ()
        self._vjp = vjp if self.requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, op={self.op!r})"


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return Tensor(arr, requires_grad=requires_grad)


def _out(data: np.ndarray, op: str, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    if _trap_nonfinite and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op {op!r}")
    req = (not _no_grad) and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, op=op, parents=tuple(parents), vjp=vjp)


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Accumulation never mutates in place, so aliasing a child's buffer is safe.
    if t.requires_grad:
        g = np.asarray(g, dtype=t.data.dtype)
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------- arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))
    return _out(a.data + b.data, "add", (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))
    return _out(a.data - b.data, "subtract", (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))
    return _out(a.data * b.data, "multiply", (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g):
        _accum(a, g * s)
    return _out(a.data * a.data.dtype.type(s), "scalar-scale", (a,), vjp)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))
    return _out(a.data @ b.data, "matmul", (a, b), vjp)


# ---------------------------------------------------------------- structure

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def vjp(g):
        _accum(a, g.reshape(a.shape))
    return _out(a.data.reshape(shape), "reshape", (a,), vjp)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)

    def vjp(g):
        _accum(a, g.transpose(inv))
    return _out(a.data.transpose(axes), "permute-axes", (a,), vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries starting at `start` along `axis`."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[idx] = g
        _accum(a, full)
    return _out(a.data[idx], "slice", (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, o, n in zip(parts, offsets, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(o, o + n)
            _accum(p, g[tuple(idx)])
    return _out(np.concatenate([p.data for p in parts], axis=axis), "concat", parts, vjp)


def gather(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Embedding-style lookup of rows along `axis`; adjoint scatter-adds."""
    indices = np.asarray(indices)

    def vjp(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        np.add.at(full, (slice(None),) * axis + (indices,), g)
        _accum(a, full)
    return _out(np.take(a.data, indices, axis=axis), "embedding-lookup", (a,), vjp)


# ---------------------------------------------------------------- reductions

def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape))
        else:
            gg = np.expand_dims(g, axis) if not keepdims else g
            _accum(a, np.broadcast_to(gg, a.shape))
    return _out(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,), vjp)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]

    def vjp(g):
        if axis is None:
            _accum(a, np.broadcast_to(g / n, a.shape))
        else:
            gg = np.expand_dims(g, axis) if not keepdims else g
            _accum(a, np.broadcast_to(gg / n, a.shape))
    return _out(a.data.mean(axis=axis, keepdims=keepdims), "mean", (a,), vjp)


def lat_weighted_mean(a: Tensor, lat_weights: np.ndarray) -> Tensor:
    """Area-weighted mean over the trailing (lat, lon) axes.

    out[...] = (1/(H*W)) * sum_h w_h sum_w a[..., h, w]; gradient is
    w_h / (H*W) per element.
    """
    w = np.asarray(lat_weights, dtype=a.dtype)
    hh, ww = a.shape[-2], a.shape[-1]
    if len(w) != hh:
        raise ShapeError(f"{len(w)} weights vs {hh} latitude rows")
    coef = w[:, None] / a.dtype.type(hh * ww)

    def vjp(g):
        _accum(a, g[..., None, None] * coef)
    return _out((a.data * coef).sum(axis=(-2, -1)), "weighted-mean", (a,), vjp)


# ---------------------------------------------------------------- pointwise

def gelu(a: Tensor) -> Tensor:
    x = a.data
    phi = 0.5 * (1.0 + erf(x / _SQRT2))

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        _accum(a, g * (phi + x * pdf).astype(x.dtype))
    return _out((x * phi).astype(x.dtype), "GELU", (a,), vjp)


def softshrink(a: Tensor, lam: float) -> Tensor:
    """sign(x) * max(|x| - lam, 0); derivative 0 on the kink."""
    x = a.data
    lam = x.dtype.type(lam)
    y = np.sign(x) * np.maximum(np.abs(x) - lam, 0)

    def vjp(g):
        _accum(a, g * (np.abs(x) > lam))
    return _out(y, "soft-shrinkage", (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot))
    return _out(y, "softmax", (a,), vjp)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    x = a.data
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv

    def vjp(g):
        _accum(bias, _unbroadcast(g, bias.shape))
        _accum(gain, _unbroadcast(g * xhat, gain.shape))
        gx = g * gain.data
        term = (gx - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        _accum(a, term * inv)
    return _out(xhat * gain.data + bias.data, "layer-normalization", (a, gain, bias), vjp)


# ---------------------------------------------------------------- contraction

def einsum(spec: str, *ts: Tensor) -> Tensor:
    """Linear contraction. Every index of each operand must also appear in the
    output or another operand (plain contractions; no traces/diagonals)."""
    lhs, out_spec = spec.replace(" ", "").split("->")
    in_specs = lhs.split(",")
    if len(in_specs) != len(ts):
        raise ShapeError(f"einsum spec {spec!r} expects {len(in_specs)} operands")

    def vjp(g):
        for i, t in enumerate(ts):
            if not t.requires_grad:
                continue
            others = [s for j, s in enumerate(in_specs) if j != i]
            arrs = [ts[j].data for j in range(len(ts)) if j != i]
            sub = ",".join([out_spec] + others) + "->" + in_specs[i]
            _accum(t, np.einsum(sub, g, *arrs, optimize=True))
    data = np.einsum(spec, *[t.data for t in ts], optimize=True)
    return _out(data, "linear-contraction", ts, vjp)


# ---------------------------------------------------------------- real FFTs

def rfft(a: Tensor) -> Tensor:
    """Real FFT along the last axis; output stacks (re, im) on a new axis 0.

    Unnormalized numpy convention: shape (2, ..., n//2 + 1). Computed in the
    tensor's own precision.
    """
    n = a.shape[-1]
    cplx = np.complex64 if a.dtype == np.float32 else np.complex128
    z = np.fft.rfft(a.data, axis=-1)

    def vjp(g):
        pad = np.zeros(g.shape[1:-1] + (n,), dtype=cplx)
        pad[..., : n // 2 + 1] = g[0] + 1j * g[1]
        _accum(a, np.fft.ifft(pad, axis=-1).real * n)
    return _out(np.stack([z.real, z.imag]), "real-FFT-1d", (a,), vjp)


def irfft(z: Tensor, n: int) -> Tensor:
    """Inverse of `rfft`: input (2, ..., n//2 + 1) stacked re/im, output (..., n).

    A plain linear map of both parts; the imaginary parts of the DC and
    Nyquist bins contribute nothing (numpy irfft convention).
    """
    nb = n // 2 + 1
    if z.shape[0] != 2 or z.shape[-1] != nb:
        raise ShapeError(f"irfft expects (2, ..., {nb}), got {z.shape}")
    y = np.fft.irfft(z.data[0] + 1j * z.data[1], n=n, axis=-1)

    def vjp(g):
        # Synthesis uses e^{+i.}, so the adjoint keeps +Im (unlike rfft's pullback).
        spec = np.fft.rfft(g, axis=-1) / g.dtype.type(n)
        gr = spec.real.copy()
        gi = spec.imag.copy()
        gr[..., 1 : (n + 1) // 2] *= 2.0
        gi[..., 1 : (n + 1) // 2] *= 2.0
        gi[..., 0] = 0.0
        if n % 2 == 0:
            gi[..., -1] = 0.0
        _accum(z, np.stack([gr, gi]))
    return _out(y, "inverse-real-FFT-1d", (z,), vjp)


def rfft2(a: Tensor) -> Tensor:
    """Real 2D FFT over the last two axes; output (2, ..., H, W//2 + 1)."""
    hh, ww = a.shape[-2], a.shape[-1]
    cplx = np.complex64 if a.dtype == np.float32 else np.complex128
    z = np.fft.rfft2(a.data, axes=(-2, -1))

    def vjp(g):
        pad = np.zeros(g.shape[1:-1] + (ww,), dtype=cplx)
        pad[..., : ww // 2 + 1] = g[0] + 1j * g[1]
        _accum(a, np.fft.ifft2(pad, axes=(-2, -1)).real * (hh * ww))
    return _out(np.stack([z.real, z.imag]), "real-FFT-2d", (a,), vjp)


def irfft2(z: Tensor, shape: tuple[int, int]) -> Tensor:
    """Inverse of `rfft2` for a real target of trailing shape (H, W).

    Computed as ifft along the row axis followed by irfft along the last axis
    (numpy's irfft2 decomposition), so it is a plain linear map of the given
    re/im values; the adjoint composes the two factor adjoints.
    """
    hh, ww = shape
    nb = ww // 2 + 1
    if z.shape[0] != 2 or z.shape[-1] != nb or z.shape[-2] != hh:
        raise ShapeError(f"irfft2 expects (2, ..., {hh}, {nb}), got {z.shape}")
    zc = z.data[0] + 1j * z.data[1]
    y = np.fft.irfft(np.fft.ifft(zc, axis=-2), n=ww, axis=-1)

    def vjp(g):
        spec = np.fft.rfft(g, axis=-1) / g.dtype.type(ww)
        gr = spec.real.copy()
        gi = spec.imag.copy()
        gr[..., 1 : (ww + 1) // 2] *= 2.0
        gi[..., 1 : (ww + 1) // 2] *= 2.0
        gi[..., 0] = 0.0
        if ww % 2 == 0:
            gi[..., -1] = 0.0
        gc = np.fft.fft(gr + 1j * gi, axis=-2) / hh
        _accum(z, np.stack([gc.real, gc.imag]))
    return _out(y, "inverse-real-FFT-2d", (z,), vjp)


# ---------------------------------------------------------------- complex

def complex_mul(ar: Tensor, ai: Tensor, br: Tensor, bi: Tensor) -> tuple[Tensor, Tensor]:
    """Pointwise complex multiply on paired real/imag channels."""
    return sub(mul(ar, br), mul(ai, bi)), add(mul(ar, bi), mul(ai, br))


# ---------------------------------------------------------------- backward

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, free_graph: bool = True) -> None:
    """Populate .grad on every requires_grad tensor reachable from `loss`."""
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no_grad mode or constant graph)")
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)
        if free_graph:
            node._vjp = None
            node._parents = ()
            if node.op != "leaf":
                node.grad = None


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------- checking

def check_gradients(fn: Callable[[], Tensor], params: dict[str, Tensor],
                    eps: float = 1e-3, sample: int | None = None,
                    seed: int = 0) -> float:
    """Max relative error between reverse-mode and central finite differences.

    `fn` evaluates the scalar loss from the current values of `params`; run it
    with float64 tensors. When `sample` is given, only that many randomly
    chosen components per parameter are probed.
    """
    loss = fn()
    zero_grads(params.values())
    backward(loss)
    grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        idxs = np.arange(n) if sample is None or sample >= n else \
            rng.choice(n, size=sample, replace=False)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + eps
            with no_grad():
                up = fn().item()
            flat[i] = keep - eps
            with no_grad():
                dn = fn().item()
            flat[i] = keep
            fd = (up - dn) / (2.0 * eps)
            ad = float(grads[name].reshape(-1)[i])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-8)
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------- checkpoints

CKPT_MAGIC = b"RSL-CKPT-1\n"


def save_checkpoint(params: dict[str, Tensor | np.ndarray], path) -> None:
    """Flat little-endian float32 blob plus a JSON index, magic RSL-CKPT-1."""
    index = {}
    blobs = []
    offset = 0
    for name in sorted(params):
        arr = params[name].data if isinstance(params[name], Tensor) else params[name]
        arr = np.ascontiguousarray(arr, dtype="<f4")
        index[name] = {"offset": offset, "shape": list(arr.shape)}
        blobs.append(arr.tobytes())
        offset += arr.size
    meta = json.dumps(index, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<Q", len(meta)))
        f.write(meta)
        for b in blobs:
            f.write(b)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Parameters saved by `save_checkpoint`. A file that is not one whole
    checkpoint (bad magic, unreadable index, blob shorter or longer than the
    index describes) raises ConfigError."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(CKPT_MAGIC):
        raise ConfigError(f"{path}: not a checkpoint file "
                          f"(bad magic {raw[:len(CKPT_MAGIC)]!r})")
    head = len(CKPT_MAGIC) + 8
    if len(raw) < head:
        raise ConfigError(f"{path}: truncated checkpoint header")
    (meta_len,) = struct.unpack_from("<Q", raw, len(CKPT_MAGIC))
    try:
        index = json.loads(raw[head : head + meta_len].decode())
        spans = {name: (int(rec["offset"]), tuple(int(d) for d in rec["shape"]))
                 for name, rec in index.items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: unreadable checkpoint index ({exc})") from exc
    body = raw[head + meta_len :]
    sizes = {name: int(np.prod(shape)) for name, (_, shape) in spans.items()}
    expected = 4 * sum(sizes.values())
    if len(body) != expected or any(
            off < 0 or min(shape, default=0) < 0 or 4 * (off + sizes[name]) > expected
            for name, (off, shape) in spans.items()):
        raise ConfigError(f"{path}: truncated or corrupt checkpoint "
                          f"({len(body)} data bytes, the index describes {expected})")
    blob = np.frombuffer(body, dtype="<f4")
    return {name: blob[off : off + sizes[name]].reshape(shape).copy()
            for name, (off, shape) in spans.items()}
