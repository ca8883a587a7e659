import dataclasses

import numpy as np
import pytest

from rsl import autodiff as ad
from rsl import train as T
from rsl.errors import ConfigError, NonFiniteError, ShapeError
from rsl.grid import area_weights, make_grid
from rsl.models import (ModelSpec, afno_block, build_model, climax_encode,
                        model_forward, model_forward_t, model_spec, sfno_block)

GRID = make_grid(8, 4)
KP, KF, KC = 2, 1, 2
R = np.random.default_rng(5)


def toy_spec(arch, **kw):
    base = {"patch_size": (2, 2)} if arch == "climax" else {}
    base.update(kw)
    layers = base.pop("n_layers", 2)
    dim = base.pop("hidden_dim", 16)
    return model_spec(arch, n_layers=layers, hidden_dim=dim, n_prognostic=KP,
                      n_forcing=KF, n_constant=KC, **base)


def toy_inputs(batch=2, dtype=np.float32):
    x = R.standard_normal((batch, KP, 4, 8)).astype(dtype)
    f = R.standard_normal((batch, KF, 4, 8)).astype(dtype)
    c = R.standard_normal((KC, 4, 8)).astype(dtype)
    return x, f, c


# ----------------------------------------------------------------- building

@pytest.mark.parametrize("arch", ["sfno", "fcn", "climax"])
def test_fresh_model_is_persistence(arch):
    st = build_model(toy_spec(arch), GRID, seed=597)
    x, f, c = toy_inputs()
    out = model_forward(st, x, f, c)
    assert out.shape == x.shape
    assert np.all(out == 0.0)


def test_n_parameters_closed_form_sfno():
    # documented formula: enc + L*(2*(lmax+1)*D^2 + 2D + 2*D*hid + hid + D) + dec
    spec = toy_spec("sfno")
    d, L = spec.hidden_dim, spec.n_layers
    kin, kp = spec.n_inputs, spec.n_prognostic
    lmax = GRID.n_lat - 1
    hid = int(spec.mlp_ratio * d)
    expect = (kin * d + d
              + L * (2 * (lmax + 1) * d * d + 2 * d
                     + d * hid + hid + hid * d + d)
              + d * kp + kp)
    assert sum(p.size for p in build_model(spec, GRID, seed=0).params.values()) == expect


def test_n_parameters_closed_form_fcn():
    spec = toy_spec("fcn")
    d, L, nb = spec.hidden_dim, spec.n_layers, spec.n_blocks
    kin, kp = spec.n_inputs, spec.n_prognostic
    hid = int(spec.mlp_ratio * d)
    bs = d // nb
    expect = (kin * d + d
              + L * (2 * d + 4 * nb * bs * bs + 2 * d
                     + d * hid + hid + hid * d + d)
              + d * kp + kp)
    assert sum(p.size for p in build_model(spec, GRID, seed=0).params.values()) == expect


def test_n_parameters_closed_form_climax():
    spec = toy_spec("climax")
    d, L = spec.hidden_dim, spec.n_layers
    kin, kp = spec.n_inputs, spec.n_prognostic
    ph, pw = spec.patch_size
    pp = ph * pw
    nt = (GRID.n_lat // ph) * (GRID.n_lon // pw)
    hid = int(spec.mlp_ratio * d)
    expect = (kin * pp * d + kin * d + kin * d          # patch embed + var embed
              + nt * d + 2 * d * d                      # aggregation
              + nt * d                                  # positional embedding
              + L * (2 * d + 4 * (d * d + d) + 2 * d
                     + d * hid + hid + hid * d + d)
              + d * d + d + d * pp * kp + pp * kp)      # decoder
    assert sum(p.size for p in build_model(spec, GRID, seed=0).params.values()) == expect


@pytest.mark.parametrize("arch, fields", [
    ("sfno", {"use_mlp": True}), ("sfno", {"use_mlp": False}),
    ("fcn", {"use_pos_embed": True}), ("fcn", {"use_pos_embed": False}),
    ("climax", {"use_pos_embed": True}), ("climax", {"use_pos_embed": False})])
def test_every_declared_parameter_is_read(arch, fields):
    """One backward of the training loss reaches every parameter build_model
    declares, so a declaration that no forward pass reads fails here."""
    rng = np.random.default_rng(11)
    st = build_model(toy_spec(arch, **fields), GRID, seed=0)
    for p in st.params.values():       # non-zero heads, so every gradient moves
        p.data = (rng.standard_normal(p.shape) * 0.1).astype(np.float32)
    x0, x1 = (rng.standard_normal((2, KP, 4, 8)).astype(np.float32) for _ in range(2))
    f = rng.standard_normal((2, KF, 4, 8)).astype(np.float32)
    c = rng.standard_normal((KC, 4, 8)).astype(np.float32)
    ad.backward(T.multi_step_loss(st, [x0, x1], [f], c, area_weights(GRID)))
    unread = [k for k, p in st.params.items() if p.grad is None or not p.grad.any()]
    assert not unread


def test_same_seed_bit_identical(tmp_path):
    spec = toy_spec("sfno")
    a = build_model(spec, GRID, seed=597)
    b = build_model(spec, GRID, seed=597)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seeds_differ_same_shapes():
    spec = toy_spec("sfno")
    a = build_model(spec, GRID, seed=597)
    b = build_model(spec, GRID, seed=1152)
    assert set(a.params) == set(b.params)
    assert all(a.params[k].shape == b.params[k].shape for k in a.params)
    assert any(not np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)


def test_checkpoint_roundtrip_forward_bit_identical(tmp_path):
    st = build_model(toy_spec("fcn"), GRID, seed=3)
    for k, p in st.params.items():   # give the zero head real values
        p.data = R.standard_normal(p.shape).astype(np.float32) * 0.05
    x, f, c = toy_inputs()
    before = model_forward(st, x, f, c)
    st.save(tmp_path / "m.ckpt")
    st2 = build_model(toy_spec("fcn"), GRID, seed=99)
    st2.load(tmp_path / "m.ckpt")
    after = model_forward(st2, x, f, c)
    assert np.array_equal(before, after)


def test_checkpoint_of_another_shape_rejected(tmp_path):
    small = build_model(toy_spec("fcn"), GRID, seed=3)
    small.save(tmp_path / "m.ckpt")
    big = build_model(toy_spec("fcn", hidden_dim=32), GRID, seed=3)
    kept = {k: p.data.copy() for k, p in big.params.items()}
    with pytest.raises(ConfigError, match="has shape"):
        big.load(tmp_path / "m.ckpt")
    assert all(np.array_equal(big.params[k].data, v) for k, v in kept.items())


def test_validate_rejects_bad_configs():
    # A spec is checked where it is built; whether its patches tile a grid,
    # where the model is built on one.
    with pytest.raises(ConfigError, match="n_heads 8"):
        toy_spec("climax", hidden_dim=18)
    with pytest.raises(ConfigError, match="n_blocks 4"):
        toy_spec("fcn", hidden_dim=18)
    spec = toy_spec("climax", patch_size=(3, 3))
    with pytest.raises(ConfigError, match="does not divide"):
        build_model(spec, GRID, seed=0)
    build_model(spec, make_grid(12, 6), seed=0)


def test_replication_mode_accepts_paper_dims():
    for arch in ("sfno", "fcn", "climax"):
        for layers in T.REPLICATION_LAYERS:
            for dim in T.REPLICATION_DIMS:
                spec = model_spec(arch, layers, dim, KP, n_forcing=KF, n_constant=KC)
                T.TrainConfig(model=spec, m_steps=2, seed=597, variable_set="vars8",
                              train_start="1979-01-01", train_end="2007-12-31",
                              val_start="2008-01-01", val_end="2008-12-31",
                              batch_size=64, epochs=20, replication=True)


def test_table1_defaults():
    cx = model_spec("climax", 4, 128, 8)
    assert cx.patch_size == (2, 2) and cx.n_heads == 8
    assert cx.mlp_ratio == 4.0
    fc = model_spec("fcn", 4, 128, 8)
    assert fc.patch_size == (1, 1) and fc.n_blocks == 4
    assert fc.sparsity_threshold == 0.01 and fc.hard_threshold_fraction == 1.0
    assert fc.use_pos_embed is False
    sf = model_spec("sfno", 4, 128, 8)
    assert sf.use_mlp is True
    assert sf.hard_threshold_fraction == 1.0 and sf.use_pos_embed is False


# A value other than the toy default for every ModelSpec field. The spec feeds
# run_id, so a field that an architecture accepts but does not read would give
# one experiment several run ids.
OTHER_VALUES = {
    "arch": "fcn", "n_layers": 3, "hidden_dim": 32, "n_prognostic": KP + 1,
    "n_forcing": KF + 1, "n_constant": KC + 1, "patch_size": (1, 2), "n_heads": 4,
    "mlp_ratio": 3.0, "sparsity_threshold": 0.5, "hard_threshold_fraction": 0.5,
    "n_blocks": 2, "use_pos_embed": True, "use_mlp": False,
}
# The spec fields each architecture reads; it rejects a value for any other.
_EVERY_ARCH = {"arch", "n_layers", "hidden_dim", "n_prognostic", "n_forcing",
               "n_constant"}
READS = {
    "sfno": _EVERY_ARCH | {"use_mlp", "mlp_ratio", "hard_threshold_fraction"},
    "fcn": _EVERY_ARCH | {"n_blocks", "sparsity_threshold", "hard_threshold_fraction",
                          "mlp_ratio", "use_pos_embed"},
    "climax": _EVERY_ARCH | {"patch_size", "n_heads", "mlp_ratio", "use_pos_embed"},
}


def _models_differ(spec_a, spec_b):
    """Different parameter shapes, or different outputs under the same
    non-zero weights and inputs."""
    a, b = (build_model(s, GRID, seed=0) for s in (spec_a, spec_b))
    if {k: p.shape for k, p in a.params.items()} != {k: p.shape for k, p in b.params.items()}:
        return True
    for st in (a, b):
        rng = np.random.default_rng(1)
        for k in sorted(st.params):
            st.params[k].data = (rng.standard_normal(st.params[k].shape) * 0.1).astype(np.float32)
    x, f, c = toy_inputs()
    out_a, out_b = model_forward(a, x, f, c), model_forward(b, x, f, c)
    assert np.all(np.isfinite(out_a)) and np.all(np.isfinite(out_b))
    return not np.array_equal(out_a, out_b)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelSpec)])
def test_every_spec_field_changes_the_model(name):
    # Per architecture: a field it reads changes its model when given a
    # non-default value. A field it does not read is rejected where a user
    # sets it (the run builder) and where a spec is built around model_spec
    # (dataclasses.replace, a config.json: ModelSpec itself checks), and
    # model_spec keeps it at its default.
    assert name in OTHER_VALUES, f"give ModelSpec.{name} a non-default value here"
    for arch in ("sfno", "fcn", "climax"):
        base = toy_spec(arch)
        value = OTHER_VALUES[name]
        if value == getattr(base, name):      # climax embeds positions by default
            value = not value
        if name in READS[arch]:
            other = toy_spec("climax" if arch == "fcn" else "fcn") if name == "arch" \
                else dataclasses.replace(base, **{name: value})
            assert other != base and _models_differ(base, other), (arch, name)
            continue
        assert toy_spec(arch, **{name: value}) == base
        grid = T.SweepSpec(archs=[arch], variable_sets=["custom:2"], m_steps=[1],
                           layers=[2], dims=[16], seeds=[1])
        with pytest.raises(ConfigError, match=f"{arch} does not read .*{name}"):
            T.enumerate_runs(grid, {name: value})
        with pytest.raises(ConfigError, match=f"{arch} does not read .*{name}"):
            dataclasses.replace(base, **{name: value})
        with pytest.raises(ConfigError, match=f"{arch} does not read .*{name}"):
            ModelSpec.from_json(dict(base.to_json(), **{name: value}))


def test_forward_rejects_nonfinite():
    st = build_model(toy_spec("sfno"), GRID, seed=1)
    x, f, c = toy_inputs()
    x[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        model_forward(st, x, f, c)


def test_forward_rejects_inputs_of_another_shape():
    # The constants are unbatched (K_c, H, W) even for a batch of X and F.
    st = build_model(toy_spec("fcn"), GRID, seed=1)
    x, f, c = toy_inputs()
    for name, args in (("X", (x[:, :1], f, c)), ("F", (x, f[:1], c)),
                       ("C", (x, f, np.broadcast_to(c, (2,) + c.shape)))):
        with pytest.raises(ShapeError, match=f"{name} shape"):
            model_forward(st, *args)


def test_climax_token_count_paper_grid():
    g = make_grid(64, 32)
    assert (g.n_lat // 2) * (g.n_lon // 2) == 512


# ----------------------------------------------------------------- blocks

def test_sfno_zero_mixing_reduces_to_mlp_sublayer():
    spec = toy_spec("sfno")
    st = build_model(spec, GRID, seed=2)
    p = st.params
    for k in ("blk0.mix.wr", "blk0.mix.wi"):
        p[k].data = np.zeros_like(p[k].data)
    x = ad.Tensor(R.standard_normal((1, 4, 8, 16)).astype(np.float32))
    out = sfno_block(x, p, "blk0", spec, st.plan)
    from rsl.models import _ln, _mlp
    expect = ad.add(x, _mlp(_ln(x, p, "blk0.ln"), p, "blk0.mlp"))
    assert np.allclose(out.data, expect.data, atol=1e-7)


def test_sfno_shift_equivariance():
    spec = toy_spec("sfno")
    st = build_model(spec, GRID, seed=3)
    for k in ("dec.w", "dec.b"):    # random head so the output is nonzero
        st.params[k].data = R.standard_normal(st.params[k].shape).astype(np.float32) * 0.1
    x = R.standard_normal((1, KP, 4, 8)).astype(np.float32)
    f = np.full((1, KF, 4, 8), 0.3, np.float32)
    c = np.tile(R.standard_normal((KC, 4, 1)).astype(np.float32), (1, 1, 8))
    k = 3
    o1 = model_forward(st, x, f, c)
    o2 = model_forward(st, np.roll(x, k, axis=-1), f, c)
    assert np.abs(np.roll(o1, k, axis=-1) - o2).max() < 1e-4


def test_sfno_gradcheck_toy():
    spec = toy_spec("sfno", n_layers=1, hidden_dim=8)
    st = build_model(spec, GRID, seed=4, dtype=np.float64)
    x, f, c = (ad.Tensor(a) for a in toy_inputs(1, np.float64))
    tgt = ad.Tensor(R.standard_normal((1, KP, 4, 8)))

    def loss():
        d = ad.sub(model_forward_t(st, x, f, c), tgt)
        return ad.mean_(ad.mul(d, d))

    assert ad.check_gradients(loss, st.params, eps=1e-4, sample=4, seed=0) < 1e-3


def test_afno_zero_tokens_zero_spectral_path():
    spec = toy_spec("fcn", hidden_dim=8)
    st = build_model(spec, GRID, seed=5)
    x = ad.Tensor(np.zeros((1, 4, 8, 8), np.float32))
    out = afno_block(x, st.params, "blk0", spec)
    assert np.all(out.data == 0.0)   # bias-free path and zero-init LN biases


def test_afno_huge_lambda_kills_spectral_path():
    spec_inf = toy_spec("fcn", hidden_dim=8, sparsity_threshold=1e9)
    st = build_model(spec_inf, GRID, seed=6)
    x = ad.Tensor(R.standard_normal((1, 4, 8, 8)).astype(np.float32))
    out = afno_block(x, st.params, "blk0", spec_inf)
    from rsl.models import _ln, _mlp
    expect = ad.add(x, _mlp(_ln(x, st.params, "blk0.ln2"), st.params, "blk0.mlp"))
    assert np.allclose(out.data, expect.data, atol=1e-7)


def test_afno_gradcheck_toy():
    spec = toy_spec("fcn", n_layers=1, hidden_dim=8, n_blocks=2)
    st = build_model(spec, GRID, seed=7, dtype=np.float64)
    x, f, c = (ad.Tensor(a) for a in toy_inputs(1, np.float64))
    tgt = ad.Tensor(R.standard_normal((1, KP, 4, 8)))

    def loss():
        d = ad.sub(model_forward_t(st, x, f, c), tgt)
        return ad.mean_(ad.mul(d, d))

    assert ad.check_gradients(loss, st.params, eps=1e-4, sample=4, seed=0) < 1e-3


def test_climax_single_variable_aggregation_noop():
    spec = model_spec("climax", 2, 16, 1, n_forcing=0, n_constant=0,
                      patch_size=(2, 2))
    st = build_model(spec, GRID, seed=8)
    inp = ad.Tensor(R.standard_normal((2, 1, 4, 8)).astype(np.float32))
    agg = climax_encode(inp, st.params, spec)
    # with one variable the softmax weight is 1: aggregation == v-projection
    from rsl.models import _patchify
    tok = _patchify(inp, 2, 2)
    x = ad.add(ad.matmul(tok, st.params["pe.w"]),
               ad.reshape(st.params["pe.b"], (1, 1, 16)))
    x = ad.add(x, ad.reshape(st.params["ve"], (1, 1, 16)))
    v = ad.matmul(x, st.params["agg.v"]).data[:, 0]
    assert np.allclose(agg.data, v, atol=1e-6)


def test_climax_gradcheck_toy():
    spec = toy_spec("climax")
    st = build_model(spec, GRID, seed=9, dtype=np.float64)
    x, f, c = (ad.Tensor(a) for a in toy_inputs(1, np.float64))
    tgt = ad.Tensor(R.standard_normal((1, KP, 4, 8)))

    def loss():
        d = ad.sub(model_forward_t(st, x, f, c), tgt)
        return ad.mean_(ad.mul(d, d))

    assert ad.check_gradients(loss, st.params, eps=1e-4, sample=4, seed=0) < 1e-3


def test_architectures_share_interface():
    outs = {}
    for arch in ("sfno", "fcn", "climax"):
        st = build_model(toy_spec(arch), GRID, seed=11)
        x, f, c = toy_inputs(batch=3)
        outs[arch] = model_forward(st, x, f, c).shape
    assert len(set(outs.values())) == 1
