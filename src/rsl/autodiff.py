"""Dense tensor engine with reverse-mode automatic differentiation.

Values live in numpy buffers (float32 for training, float64 for oracles and
gradient checks). Each operation builds the output eagerly and, when an input
requires grad, records a `Node` whose closure computes the vector-Jacobian
product for its inputs; `backward` runs the closures once in reverse
topological order and frees the graph as it goes. All reductions use numpy's
fixed sequential/pairwise order, so repeated evaluation of the same graph is
bit-identical.

Complex data is represented as paired real/imaginary channels: the FFT ops
return/consume tensors with a leading axis of size 2 (re, im), and complex
arithmetic is composed from real ops.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYER_NORM_EPS = 1e-5

# When True, no graph is recorded (inference mode).
_no_grad = False


class no_grad:
    """Context manager disabling graph construction."""

    def __enter__(self):
        global _no_grad
        self._prev = _no_grad
        _no_grad = True

    def __exit__(self, *exc):
        global _no_grad
        _no_grad = self._prev


class Node:
    """Graph record of one tensor that requires grad: its gradient slot, its
    parent nodes and its pullback.

    A pullback closes over parent nodes and over exactly the arrays and shapes
    it reads, never over a parent Tensor, so an activation that no pullback
    reads is freed as soon as the forward pass drops its Tensor. A leaf has no
    pullback and keeps its gradient after `backward`.
    """

    __slots__ = ("grad", "dtype", "parents", "vjp")

    def __init__(self, dtype, parents: tuple = (), vjp: Callable | None = None):
        self.grad: np.ndarray | None = None
        self.dtype = dtype
        self.parents = parents
        self.vjp = vjp


class Tensor:
    __slots__ = ("data", "op", "_node")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        self.data = np.asarray(data)
        self.op = op
        self._node = Node(self.data.dtype) if requires_grad and not _no_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = g
        elif g is not None:
            raise ValueError("cannot set the gradient of a tensor that does not require grad")

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, op={self.op!r})"


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return Tensor(arr, requires_grad=requires_grad)


def _node(t: Tensor) -> Node | None:
    """The node a pullback writes `t`'s gradient into; None for a constant.
    The gradient takes the dtype `t` has when the op reads it."""
    node = t._node
    if node is not None:
        node.dtype = t.data.dtype
    return node


def _out(data: np.ndarray, op: str, parents: Sequence[Node | None], vjp: Callable) -> Tensor:
    out = Tensor(data, op=op)
    parents = tuple(p for p in parents if p is not None)
    if parents and not _no_grad:
        out._node = Node(out.data.dtype, parents, vjp)
    return out


def _accum(node: Node, g: np.ndarray) -> None:
    # Accumulation never mutates in place, so aliasing a child's buffer is safe.
    g = np.asarray(g, dtype=node.dtype)
    node.grad = g if node.grad is None else node.grad + g


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


# Every pullback below skips the work for a parent whose node is None.

# ---------------------------------------------------------------- arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    na, nb = _node(a), _node(b)
    sa, sb = a.shape, b.shape

    def vjp(g):
        if na is not None:
            _accum(na, _unbroadcast(g, sa))
        if nb is not None:
            _accum(nb, _unbroadcast(g, sb))
    return _out(a.data + b.data, "add", (na, nb), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    na, nb = _node(a), _node(b)
    sa, sb = a.shape, b.shape

    def vjp(g):
        if na is not None:
            _accum(na, _unbroadcast(g, sa))
        if nb is not None:
            _accum(nb, _unbroadcast(-g, sb))
    return _out(a.data - b.data, "subtract", (na, nb), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    na, nb = _node(a), _node(b)
    sa, sb = a.shape, b.shape
    # Each operand is kept only for the other's gradient.
    xa = a.data if nb is not None else None
    xb = b.data if na is not None else None

    def vjp(g):
        if na is not None:
            _accum(na, _unbroadcast(g * xb, sa))
        if nb is not None:
            _accum(nb, _unbroadcast(g * xa, sb))
    return _out(a.data * b.data, "multiply", (na, nb), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    na = _node(a)

    def vjp(g):
        _accum(na, g * s)
    return _out(a.data * a.data.dtype.type(s), "scalar-scale", (na,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    na, nb = _node(a), _node(b)
    sa, sb = a.shape, b.shape
    xa = a.data if nb is not None else None
    xb = b.data if na is not None else None

    def vjp(g):
        if na is not None:
            _accum(na, _unbroadcast(g @ np.swapaxes(xb, -1, -2), sa))
        if nb is not None:
            _accum(nb, _unbroadcast(np.swapaxes(xa, -1, -2) @ g, sb))
    return _out(a.data @ b.data, "matmul", (na, nb), vjp)


# ---------------------------------------------------------------- structure

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    na, sa = _node(a), a.shape

    def vjp(g):
        _accum(na, g.reshape(sa))
    return _out(a.data.reshape(shape), "reshape", (na,), vjp)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)
    na = _node(a)

    def vjp(g):
        _accum(na, g.transpose(inv))
    return _out(a.data.transpose(axes), "permute-axes", (na,), vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries starting at `start` along `axis`."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    na, sa = _node(a), a.shape

    def vjp(g):
        full = np.zeros(sa, dtype=g.dtype)
        full[idx] = g
        _accum(na, full)
    return _out(a.data[idx], "slice", (na,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    nodes = [_node(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for node, o, n in zip(nodes, offsets, sizes):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(o, o + n)
                _accum(node, g[tuple(idx)])
    return _out(np.concatenate([p.data for p in parts], axis=axis), "concat", nodes, vjp)


# ---------------------------------------------------------------- reductions

def sum_(a: Tensor, axis=None) -> Tensor:
    na, sa = _node(a), a.shape

    def vjp(g):
        if axis is None:
            _accum(na, np.broadcast_to(g, sa))
        else:
            _accum(na, np.broadcast_to(np.expand_dims(g, axis), sa))
    return _out(a.data.sum(axis=axis), "sum", (na,), vjp)


def mean_(a: Tensor, axis=None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    na, sa = _node(a), a.shape

    def vjp(g):
        if axis is None:
            _accum(na, np.broadcast_to(g / n, sa))
        else:
            _accum(na, np.broadcast_to(np.expand_dims(g, axis) / n, sa))
    return _out(a.data.mean(axis=axis), "mean", (na,), vjp)


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
    na = _node(a)

    def vjp(g):
        _accum(na, g[..., None, None] * coef)
    return _out((a.data * coef).sum(axis=(-2, -1)), "weighted-mean", (na,), vjp)


# ---------------------------------------------------------------- pointwise

def gelu(a: Tensor) -> Tensor:
    x = a.data
    phi = 0.5 * (1.0 + erf(x / _SQRT2))
    na = _node(a)
    # The derivative is formed here, in the pullback's arithmetic, so the
    # graph keeps one array of the input's dtype instead of x and phi.
    dydx = None
    if na is not None and not _no_grad:
        dydx = (phi + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))).astype(x.dtype)

    def vjp(g):
        _accum(na, g * dydx)
    return _out((x * phi).astype(x.dtype), "GELU", (na,), vjp)


def softshrink(a: Tensor, lam: float) -> Tensor:
    """sign(x) * max(|x| - lam, 0); derivative 0 on the kink."""
    x = a.data
    lam = x.dtype.type(lam)
    y = np.sign(x) * np.maximum(np.abs(x) - lam, 0)
    na = _node(a)
    live = np.abs(x) > lam if na is not None and not _no_grad else None

    def vjp(g):
        _accum(na, g * live)
    return _out(y, "soft-shrinkage", (na,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    # In place: y is the one full-size array alive at the end.
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    na = _node(a)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(na, y * (g - dot))
    return _out(y, "softmax", (na,), vjp)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(LAYER_NORM_EPS))
    xhat = xc * inv
    na, ng, nb = _node(a), _node(gain), _node(bias)
    w = gain.data
    sg, sb = gain.shape, bias.shape

    def vjp(g):
        if nb is not None:
            _accum(nb, _unbroadcast(g, sb))
        if ng is not None:
            _accum(ng, _unbroadcast(g * xhat, sg))
        if na is not None:
            gx = g * w
            term = (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            _accum(na, term * inv)
    return _out(xhat * w + bias.data, "layer-normalization", (na, ng, nb), vjp)


# ---------------------------------------------------------------- real FFTs

def _rfftn(a: Tensor, nd: int, op: str) -> Tensor:
    """Real FFT over the last `nd` axes in numpy's unnormalized convention and
    the tensor's own precision; (re, im) are stacked on a new axis 0, so a
    last axis of length n becomes (2, ..., n//2 + 1)."""
    shape = a.shape[-nd:]
    axes = tuple(range(-nd, 0))
    cplx = np.complex64 if a.dtype == np.float32 else np.complex128
    z = np.fft.rfftn(a.data, axes=axes)
    na = _node(a)

    def vjp(g):
        pad = np.zeros(g.shape[1:-1] + shape[-1:], dtype=cplx)
        pad[..., : shape[-1] // 2 + 1] = g[0] + 1j * g[1]
        _accum(na, np.fft.ifftn(pad, axes=axes).real * math.prod(shape))
    return _out(np.stack([z.real, z.imag]), op, (na,), vjp)


def _irfft_adjoint(g: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of the length-`n` irfft along the last axis applied to `g`, as
    (re, im) parts. Synthesis uses e^{+i.}, so the adjoint keeps +Im (unlike
    rfft's pullback); the imaginary parts of the DC and Nyquist bins get none."""
    spec = np.fft.rfft(g, axis=-1) / g.dtype.type(n)
    gr = spec.real.copy()
    gi = spec.imag.copy()
    gr[..., 1 : (n + 1) // 2] *= 2.0
    gi[..., 1 : (n + 1) // 2] *= 2.0
    gi[..., 0] = 0.0
    if n % 2 == 0:
        gi[..., -1] = 0.0
    return gr, gi


def _irfftn(z: Tensor, shape: tuple[int, ...], op: str) -> Tensor:
    """Inverse of `_rfftn` for a real target of trailing shape `shape`.

    numpy's decomposition: ifft along each leading axis, then irfft along the
    last, so it is a plain linear map of the given re/im values (the
    imaginary parts of the DC and Nyquist bins contribute nothing); the
    adjoint composes the factor adjoints."""
    shape = tuple(shape)
    want = shape[:-1] + (shape[-1] // 2 + 1,)
    if z.shape[0] != 2 or z.shape[-len(shape):] != want:
        name = "irfft" if len(shape) == 1 else f"irfft{len(shape)}"
        raise ShapeError(f"{name} expects (2, ..., {', '.join(map(str, want))}), "
                         f"got {z.shape}")
    axes = tuple(range(-len(shape), 0))
    y = np.fft.irfftn(z.data[0] + 1j * z.data[1], s=shape, axes=axes)
    nz = _node(z)

    def vjp(g):
        gr, gi = _irfft_adjoint(g, shape[-1])
        for axis, n in zip(axes, shape[:-1]):
            gc = np.fft.fft(gr + 1j * gi, axis=axis) / n
            gr, gi = gc.real, gc.imag
        _accum(nz, np.stack([gr, gi]))
    return _out(y, op, (nz,), vjp)


def rfft(a: Tensor) -> Tensor:
    """Real FFT along the last axis: (..., n) -> (2, ..., n//2 + 1)."""
    return _rfftn(a, 1, "real-FFT-1d")


def irfft(z: Tensor, n: int) -> Tensor:
    """Inverse of `rfft`: (2, ..., n//2 + 1) -> (..., n)."""
    return _irfftn(z, (n,), "inverse-real-FFT-1d")


def rfft2(a: Tensor) -> Tensor:
    """Real 2D FFT over the last two axes: (..., H, W) -> (2, ..., H, W//2 + 1)."""
    return _rfftn(a, 2, "real-FFT-2d")


def irfft2(z: Tensor, shape: tuple[int, int]) -> Tensor:
    """Inverse of `rfft2` for a real target of trailing shape (H, W)."""
    return _irfftn(z, shape, "inverse-real-FFT-2d")


# ---------------------------------------------------------------- complex

def complex_matmul(ar: Tensor, ai: Tensor, br: Tensor, bi: Tensor) -> tuple[Tensor, Tensor]:
    """(ar + i ai) @ (br + i bi) on paired real/imaginary channels, as four
    real matmuls: re = ar@br - ai@bi, im = ai@br + ar@bi."""
    re = sub(matmul(ar, br), matmul(ai, bi))
    im = add(matmul(ai, br), matmul(ar, bi))
    return re, im


# ---------------------------------------------------------------- backward

def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Each pullback runs once, in reverse topological order, and the graph is
    freed as it goes: a node drops its pullback (and with it the arrays the
    pullback kept), its parents and its gradient once its pullback has run.
    Leaves keep their gradients.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no_grad mode or constant graph)")
    order = _toposort(loss._node)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node.vjp is None:
            continue
        if node.grad is not None:
            node.vjp(node.grad)
        node.vjp = None
        node.parents = ()
        node.grad = None


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------- checking

def check_gradients(fn: Callable[[], Tensor], params: dict[str, Tensor],
                    eps: float = 1e-3, sample: int | None = None,
                    seed: int = 0) -> float:
    """Max relative error between reverse-mode and finite differences.

    `fn` evaluates the scalar loss from the current values of `params`; run it
    with float64 tensors. When `sample` is given, only that many randomly
    chosen components per parameter are probed. Each component is probed by
    central differences at steps `eps` and `eps / 2`, combined by Richardson
    extrapolation, so the O(eps^2) truncation error cancels. A component's
    error is relative to the larger of its two values, or to 1e-8 times the
    largest gradient component (at least 1e-8) if that is larger: below that
    level the float64 round-off of the differences, not the gradient, sets
    the error.
    """
    loss = fn()
    zero_grads(params.values())
    backward(loss)
    grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}
    floor = 1e-8 * max([1.0] + [float(np.abs(g).max()) for g in grads.values() if g.size])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        idxs = np.arange(n) if sample is None or sample >= n else \
            rng.choice(n, size=sample, replace=False)
        for i in idxs:
            keep = flat[i]

            def central(h):
                flat[i] = keep + h
                with no_grad():
                    up = fn().item()
                flat[i] = keep - h
                with no_grad():
                    dn = fn().item()
                flat[i] = keep
                return (up - dn) / (2.0 * h)

            fd = (4.0 * central(eps / 2) - central(eps)) / 3.0
            ad = float(grads[name].reshape(-1)[i])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), floor)
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
