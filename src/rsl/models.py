"""The three emulator architectures as residual one-step predictors.

Every model maps normalized inputs (X: prognostic, F: forcing, C: constant)
to an increment dX with the same shape as X, so the induced step is
X_next = X + f(X, F, C). Output heads are zero-initialized: a freshly built
model is exactly the persistence forecast.

Channel order fed to the network is [prognostic..., forcing..., constant...].
Token layout is channel-last (B, H, W, D) except inside spectral stages.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import autodiff as ad
from .errors import ConfigError, NonFiniteError, ShapeError, dataclass_kwargs
from .grid import GridSpec
from .spectral import SHTPlan, plan_sht, sht_forward_t, sht_inverse_t

ARCHS = ("climax", "fcn", "sfno")

# The spec fields each architecture reads besides the six every one reads
# (arch, n_layers, hidden_dim and the three variable counts), with their
# locked defaults. A field an architecture does not read stays at its
# ModelSpec default, so it cannot split one model into several run ids.
_ARCH_DEFAULTS = {
    "climax": dict(patch_size=(2, 2), n_heads=8, mlp_ratio=4.0, use_pos_embed=True),
    "fcn": dict(n_blocks=4, sparsity_threshold=0.01, hard_threshold_fraction=1.0,
                mlp_ratio=4.0, use_pos_embed=False),
    "sfno": dict(use_mlp=True, mlp_ratio=2.0, hard_threshold_fraction=1.0),
}
_ARCH_FIELDS = set().union(*_ARCH_DEFAULTS.values())


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    n_layers: int
    hidden_dim: int
    n_prognostic: int
    n_forcing: int = 1
    n_constant: int = 4
    patch_size: tuple[int, int] = (1, 1)
    n_heads: int = 8
    mlp_ratio: float = 4.0
    sparsity_threshold: float = 0.01
    hard_threshold_fraction: float = 1.0
    n_blocks: int = 4
    use_pos_embed: bool = False
    use_mlp: bool = True

    def __post_init__(self):
        """ConfigError unless every setting the grid does not decide is valid."""
        object.__setattr__(self, "patch_size", tuple(self.patch_size))
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown architecture {self.arch!r}, expected one of {ARCHS}")
        unread = unread_fields(self.arch, [f.name for f in dataclasses.fields(self)
                                           if f.name in _ARCH_FIELDS
                                           and getattr(self, f.name) != f.default])
        if unread:
            raise ConfigError(f"{self.arch} does not read the model fields {unread}, "
                              f"which must keep their defaults")
        rules = [(f"{name} >= 1", getattr(self, name) >= 1)
                 for name in ("n_layers", "hidden_dim", "n_prognostic", "n_heads", "n_blocks")]
        rules += [("both sides of patch_size >= 1", min(self.patch_size) >= 1),
                  ("int(mlp_ratio * hidden_dim) >= 1", self.mlp_ratio * self.hidden_dim >= 1),
                  ("0 < hard_threshold_fraction <= 1", 0 < self.hard_threshold_fraction <= 1),
                  ("sparsity_threshold >= 0", self.sparsity_threshold >= 0)]
        for rule, ok in rules:
            if not ok:
                raise ConfigError(f"a model needs {rule}, got {self}")
        split = {"climax": "n_heads", "fcn": "n_blocks"}.get(self.arch)
        if split and self.hidden_dim % getattr(self, split) != 0:
            raise ConfigError(f"hidden_dim {self.hidden_dim} not divisible by "
                              f"{split} {getattr(self, split)}")

    @property
    def n_inputs(self) -> int:
        return self.n_prognostic + self.n_forcing + self.n_constant

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        d["patch_size"] = list(self.patch_size)
        return d

    @staticmethod
    def from_json(d: dict) -> "ModelSpec":
        return ModelSpec(**dataclass_kwargs(ModelSpec, d, "model"))


def model_spec(arch: str, n_layers: int, hidden_dim: int, n_prognostic: int,
               n_forcing: int = 1, n_constant: int = 4, **fields) -> ModelSpec:
    """Build a ModelSpec with the architecture's locked defaults applied.
    `fields` sets the fields the architecture reads; the fields only another
    architecture reads keep their ModelSpec defaults (see unread_fields)."""
    kw = dict(_ARCH_DEFAULTS.get(arch, {}))
    kw.update((k, v) for k, v in fields.items() if k in kw or k not in _ARCH_FIELDS)
    return ModelSpec(arch=arch, n_layers=n_layers, hidden_dim=hidden_dim,
                     n_prognostic=n_prognostic, n_forcing=n_forcing,
                     n_constant=n_constant, **kw)


def unread_fields(arch: str, fields) -> list[str]:
    """The names among `fields` that architecture `arch` does not read."""
    return sorted(set(fields) - set(_ARCH_DEFAULTS[arch]))


@dataclass
class ModelState:
    spec: ModelSpec
    grid: GridSpec
    params: dict[str, ad.Tensor]
    plan: SHTPlan | None = None
    dtype: np.dtype = np.float32

    def save(self, path) -> None:
        ad.save_checkpoint(self.params, path)

    def load(self, path) -> None:
        blobs = ad.load_checkpoint(path)
        if set(blobs) != set(self.params):
            raise ConfigError("checkpoint parameter names do not match this model")
        for k, arr in blobs.items():
            if arr.shape != self.params[k].shape:
                raise ConfigError(f"checkpoint parameter {k!r} has shape {arr.shape}, "
                                  f"this model needs {self.params[k].shape}")
        for k, arr in blobs.items():
            self.params[k].data = arr.astype(self.dtype)


# ------------------------------------------------------------------- shapes

def _param_shapes(spec: ModelSpec, grid: GridSpec, plan: SHTPlan | None):
    """Yield (name, shape, init) with init in {normal, zeros, ones}."""
    kin, kp, d = spec.n_inputs, spec.n_prognostic, spec.hidden_dim
    ph, pw = spec.patch_size
    hid = int(spec.mlp_ratio * d)
    if spec.arch == "climax":
        nt = (grid.n_lat // ph) * (grid.n_lon // pw)
        yield "pe.w", (kin, ph * pw, d), "normal"
        yield "pe.b", (kin, d), "zeros"
        yield "ve", (kin, d), "normal"
        yield "agg.q", (nt, d), "normal"
        yield "agg.k", (d, d), "normal"
        yield "agg.v", (d, d), "normal"
        tokens = (nt,)
    else:
        yield from _pointwise_params("enc", kin, d, "normal")
        tokens = grid.shape
    if spec.use_pos_embed:                                 # never set for sfno
        yield "pos", tokens + (d,), "normal"
    for i in range(spec.n_layers):
        if spec.arch == "sfno":
            yield f"blk{i}.mix.wr", (plan.lmax + 1, d, d), "normal"
            yield f"blk{i}.mix.wi", (plan.lmax + 1, d, d), "normal"
            if spec.use_mlp:
                yield from _ln_params(f"blk{i}.ln", d)
                yield from _mlp_params(f"blk{i}.mlp", d, hid, d)
            continue
        yield from _ln_params(f"blk{i}.ln1", d)
        if spec.arch == "fcn":
            bs = d // spec.n_blocks
            for name in ("w1r", "w1i", "w2r", "w2i"):
                yield f"blk{i}.spec.{name}", (spec.n_blocks, bs, bs), "normal"
        else:
            for name in ("q", "k", "v", "o"):
                yield f"blk{i}.attn.w{name}", (d, d), "normal"
                yield f"blk{i}.attn.b{name}", (d,), "zeros"
        yield from _ln_params(f"blk{i}.ln2", d)
        yield from _mlp_params(f"blk{i}.mlp", d, hid, d)
    if spec.arch == "climax":
        yield from _mlp_params("dec", d, d, ph * pw * kp, w2_init="zeros")
    else:
        yield from _pointwise_params("dec", d, kp, "zeros")


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    # Inverse-CDF sampling truncated at +-2 std; deterministic given the rng state.
    lo, hi = ndtr(-2.0), ndtr(2.0)
    u = rng.uniform(lo, hi, size=shape)
    return (ndtri(u) * std).astype(dtype)


def build_model(spec: ModelSpec, grid: GridSpec, seed: int,
                dtype=np.float32) -> ModelState:
    """Deterministically initialize parameters from `seed`."""
    if grid.n_lat % spec.patch_size[0] != 0 or grid.n_lon % spec.patch_size[1] != 0:
        raise ConfigError(f"patch size {spec.patch_size} does not divide grid {grid.shape}")
    plan = plan_sht(grid, spec.hard_threshold_fraction) if spec.arch == "sfno" else None
    rng = np.random.default_rng(seed)
    params: dict[str, ad.Tensor] = {}
    for name, shape, init in _param_shapes(spec, grid, plan):
        if init == "normal":
            data = _trunc_normal(rng, shape, 0.02, dtype)
        elif init == "ones":
            data = np.ones(shape, dtype=dtype)
        else:
            data = np.zeros(shape, dtype=dtype)
        params[name] = ad.Tensor(data, requires_grad=True)
    return ModelState(spec=spec, grid=grid, params=params, plan=plan,
                      dtype=np.dtype(dtype))


# ------------------------------------------------------------------- helpers

def _mlp_params(prefix: str, d_in: int, hid: int, d_out: int, w2_init: str = "normal"):
    yield f"{prefix}.w1", (d_in, hid), "normal"
    yield f"{prefix}.b1", (hid,), "zeros"
    yield f"{prefix}.w2", (hid, d_out), w2_init
    yield f"{prefix}.b2", (d_out,), "zeros"


def _mlp(x: ad.Tensor, params: dict, prefix: str) -> ad.Tensor:
    h = ad.gelu(ad.add(ad.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return ad.add(ad.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _ln_params(prefix: str, d: int):
    yield f"{prefix}.g", (d,), "ones"
    yield f"{prefix}.b", (d,), "zeros"


def _ln(x: ad.Tensor, params: dict, prefix: str) -> ad.Tensor:
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _split_ri(z: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    re = ad.reshape(ad.narrow(z, 0, 0, 1), z.shape[1:])
    im = ad.reshape(ad.narrow(z, 0, 1, 1), z.shape[1:])
    return re, im


def _stack_ri(re: ad.Tensor, im: ad.Tensor) -> ad.Tensor:
    one = (1,)
    return ad.concat([ad.reshape(re, one + re.shape), ad.reshape(im, one + im.shape)], 0)


# ------------------------------------------------------------------- sfno

def sfno_block(x: ad.Tensor, params: dict, prefix: str, spec: ModelSpec,
               plan: SHTPlan) -> ad.Tensor:
    """tokens (B, H, W, D) -> same shape.

    Spectral path: SHT -> complex channel mixing, diagonal over (l, m) with
    weights shared across m per degree l -> inverse SHT -> residual add.
    Then a pre-norm per-token MLP with its own residual.
    """
    t = ad.transpose(x, (0, 3, 1, 2))                      # (B, D, H, W)
    c = sht_forward_t(t, plan)                             # (2, B, D, L, M)
    c = ad.transpose(c, (0, 1, 3, 4, 2))                   # (2, B, L, M, D)
    cr, ci = _split_ri(c)
    wr, wi = params[f"{prefix}.mix.wr"], params[f"{prefix}.mix.wi"]
    orr, oii = ad.complex_matmul(cr, ci, wr, wi)           # (B, L, M, D) @ (L, D, D)
    mixed = ad.transpose(_stack_ri(orr, oii), (0, 1, 4, 2, 3))
    y = sht_inverse_t(mixed, plan)                         # (B, D, H, W)
    x = ad.add(x, ad.transpose(y, (0, 2, 3, 1)))
    if spec.use_mlp:
        x = ad.add(x, _mlp(_ln(x, params, f"{prefix}.ln"), params, f"{prefix}.mlp"))
    return x


def _pointwise_params(prefix: str, d_in: int, d_out: int, w_init: str):
    yield f"{prefix}.w", (d_in, d_out), w_init
    yield f"{prefix}.b", (d_out,), "zeros"


def _pointwise_encode(inp: ad.Tensor, params: dict) -> ad.Tensor:
    x = ad.transpose(inp, (0, 2, 3, 1))                    # (B, H, W, K)
    return ad.add(ad.matmul(x, params["enc.w"]), params["enc.b"])


def _pointwise_decode(x: ad.Tensor, params: dict) -> ad.Tensor:
    y = ad.add(ad.matmul(x, params["dec.w"]), params["dec.b"])
    return ad.transpose(y, (0, 3, 1, 2))                   # (B, K_p, H, W)


# ------------------------------------------------------------------- fcn/afno

def _afno_mode_mask(spec: ModelSpec, hh: int, ww: int) -> np.ndarray | None:
    frac = spec.hard_threshold_fraction
    if frac >= 1.0:
        return None
    keep_h = int((hh // 2 + 1) * frac)
    keep_w = int((ww // 2 + 1) * frac)
    rows = np.minimum(np.arange(hh), hh - np.arange(hh))
    mask = (rows[:, None] < keep_h) & (np.arange(ww // 2 + 1)[None, :] < keep_w)
    return mask.astype(np.float64)


def afno_block(x: ad.Tensor, params: dict, prefix: str, spec: ModelSpec) -> ad.Tensor:
    """tokens (B, H, W, D) -> same shape.

    Pre-norm spectral token mixer: 2D FFT, per-frequency block-diagonal
    two-layer complex MLP (bias-free, GELU on re/im parts), soft-shrinkage,
    inverse FFT, residual; then a pre-norm per-token MLP with residual.
    """
    bb, hh, ww, d = x.shape
    nb = spec.n_blocks
    bs = d // nb
    u = _ln(x, params, f"{prefix}.ln1")
    t = ad.transpose(u, (0, 3, 1, 2))                      # (B, D, H, W)
    z = ad.rfft2(t)                                        # (2, B, D, H, Wf)
    wf = z.shape[-1]
    mask = _afno_mode_mask(spec, hh, ww)
    if mask is not None:
        z = ad.mul(z, ad.tensor(mask.astype(z.dtype)))
    # Frequency points become matmul rows: (2, B, nb, H*Wf, bs).
    z = ad.reshape(z, (2, bb, nb, bs, hh, wf))
    z = ad.reshape(ad.transpose(z, (0, 1, 2, 4, 5, 3)), (2, bb, nb, hh * wf, bs))
    zr, zi = _split_ri(z)
    w1r, w1i = params[f"{prefix}.spec.w1r"], params[f"{prefix}.spec.w1i"]
    w2r, w2i = params[f"{prefix}.spec.w2r"], params[f"{prefix}.spec.w2i"]
    hr, hi = ad.complex_matmul(zr, zi, w1r, w1i)           # (B, nb, HWf, bs)
    hr, hi = ad.gelu(hr), ad.gelu(hi)
    orr, oii = ad.complex_matmul(hr, hi, w2r, w2i)
    lam = spec.sparsity_threshold
    orr, oii = ad.softshrink(orr, lam), ad.softshrink(oii, lam)
    zz = ad.reshape(_stack_ri(orr, oii), (2, bb, nb, hh, wf, bs))
    zz = ad.reshape(ad.transpose(zz, (0, 1, 2, 5, 3, 4)), (2, bb, d, hh, wf))
    y = ad.irfft2(zz, (hh, ww))                            # (B, D, H, W)
    x = ad.add(x, ad.transpose(y, (0, 2, 3, 1)))
    x = ad.add(x, _mlp(_ln(x, params, f"{prefix}.ln2"), params, f"{prefix}.mlp"))
    return x


# ------------------------------------------------------------------- climax

def _patchify(x: ad.Tensor, ph: int, pw: int) -> ad.Tensor:
    """(B, V, H, W) -> (B, V, T, ph*pw) with T = (H/ph)*(W/pw)."""
    bb, vv, hh, ww = x.shape
    nh, nw = hh // ph, ww // pw
    x = ad.reshape(x, (bb, vv, nh, ph, nw, pw))
    x = ad.transpose(x, (0, 1, 2, 4, 3, 5))
    return ad.reshape(x, (bb, vv, nh * nw, ph * pw))


def _unpatchify(y: ad.Tensor, kp: int, hh: int, ww: int, ph: int, pw: int) -> ad.Tensor:
    """(B, T, ph*pw*Kp) -> (B, Kp, H, W)."""
    bb = y.shape[0]
    nh, nw = hh // ph, ww // pw
    y = ad.reshape(y, (bb, nh, nw, ph, pw, kp))
    y = ad.transpose(y, (0, 5, 1, 3, 2, 4))
    return ad.reshape(y, (bb, kp, hh, ww))


def climax_encode(inp: ad.Tensor, params: dict, spec: ModelSpec) -> ad.Tensor:
    """(B, V, H, W) -> aggregated token sequence (B, T, D).

    Each channel is patch-embedded with its own weights, a per-variable
    embedding is added, and a multi-head cross-attention with one learned
    query per spatial token collapses the variable axis (each head mixes its
    own value slice, so distinct variables survive the aggregation).
    """
    ph, pw = spec.patch_size
    d = spec.hidden_dim
    nh = spec.n_heads
    dh = d // nh
    tok = _patchify(inp, ph, pw)                           # (B, V, T, P)
    bb, vv, nt, _ = tok.shape
    per_var = lambda p: ad.reshape(p, (vv, 1, d))          # broadcasts over (B, V, T, D)
    x = ad.add(ad.matmul(tok, params["pe.w"]), per_var(params["pe.b"]))
    x = ad.add(x, per_var(params["ve"]))
    k = ad.reshape(ad.matmul(x, params["agg.k"]), (bb, vv, nt, nh, dh))
    v = ad.reshape(ad.matmul(x, params["agg.v"]), (bb, vv, nt, nh, dh))
    q = ad.reshape(params["agg.q"], (nt, nh, dh))
    scores = ad.scale(ad.sum_(ad.mul(k, q), axis=-1), 1.0 / np.sqrt(dh))
    attn = ad.softmax(scores, axis=1)                      # (B, V, T, nh) over V
    agg = ad.sum_(ad.mul(ad.reshape(attn, attn.shape + (1,)), v), axis=1)
    return ad.reshape(agg, (bb, nt, d))                    # (B, T, D)


def _attention(x: ad.Tensor, params: dict, prefix: str, n_heads: int) -> ad.Tensor:
    bb, nt, d = x.shape
    dh = d // n_heads

    def proj(name):
        y = ad.add(ad.matmul(x, params[f"{prefix}.w{name}"]), params[f"{prefix}.b{name}"])
        return ad.transpose(ad.reshape(y, (bb, nt, n_heads, dh)), (0, 2, 1, 3))

    q, k, v = proj("q"), proj("k"), proj("v")                  # (B, h, T, dh)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = ad.softmax(scores, axis=-1)
    out = ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3))       # (B, T, h, dh)
    out = ad.reshape(out, (bb, nt, d))
    return ad.add(ad.matmul(out, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])


def climax_decode(tokens: ad.Tensor, params: dict, spec: ModelSpec,
                  grid: GridSpec) -> ad.Tensor:
    """Depth-2 decoder MLP mapping tokens to patch increments, un-patched."""
    y = _mlp(tokens, params, "dec")
    ph, pw = spec.patch_size
    return _unpatchify(y, spec.n_prognostic, grid.n_lat, grid.n_lon, ph, pw)


# ------------------------------------------------------------------- forward

def model_forward_t(state: ModelState, x: ad.Tensor, f: ad.Tensor,
                    c: ad.Tensor) -> ad.Tensor:
    """Differentiable increment (B, K_p, H, W) of X (B, K_p, H, W), F (B, K_f, H, W)
    and the constants, unbatched as (K_c, H, W): the stages of _param_shapes, in order."""
    spec, p = state.spec, state.params
    c = ad.Tensor(np.broadcast_to(c.data, (x.shape[0],) + c.shape))
    inp = ad.concat([x, f, c], axis=1)
    if spec.arch == "climax":
        h = climax_encode(inp, p, spec)
    else:
        h = _pointwise_encode(inp, p)
    if spec.use_pos_embed:                                 # never set for sfno
        h = ad.add(h, p["pos"])
    for i in range(spec.n_layers):
        if spec.arch == "sfno":
            h = sfno_block(h, p, f"blk{i}", spec, state.plan)
        elif spec.arch == "fcn":
            h = afno_block(h, p, f"blk{i}", spec)
        else:
            h = ad.add(h, _attention(_ln(h, p, f"blk{i}.ln1"), p, f"blk{i}.attn", spec.n_heads))
            h = ad.add(h, _mlp(_ln(h, p, f"blk{i}.ln2"), p, f"blk{i}.mlp"))
    if spec.arch == "climax":
        return climax_decode(h, p, spec, state.grid)
    return _pointwise_decode(h, p)


def model_forward(state: ModelState, x: np.ndarray, f: np.ndarray,
                  c: np.ndarray) -> np.ndarray:
    """Increment in normalized units for a single sample or a batch of X and
    F; the constants are unbatched (K_c, H, W) either way."""
    x, f, c = (np.asarray(a, dtype=state.dtype) for a in (x, f, c))
    squeeze = x.ndim == 3
    if squeeze:
        x, f = x[None], f[None]
    spec, batch = state.spec, (x.shape[0],)
    for name, a, lead in (("X", x, batch + (spec.n_prognostic,)),
                          ("F", f, batch + (spec.n_forcing,)), ("C", c, (spec.n_constant,))):
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(f"non-finite values in model input {name}")
        if a.shape != lead + state.grid.shape:
            raise ShapeError(f"{name} shape {a.shape}, expected {lead + state.grid.shape}")
    with ad.no_grad():
        out = model_forward_t(state, ad.Tensor(x), ad.Tensor(f), ad.Tensor(c))
    return out.data[0] if squeeze else out.data
