import json
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsl import autodiff as ad
from rsl import train as T
from rsl.errors import ConfigError
from rsl.grid import area_weights, make_grid
from rsl.models import build_model, model_spec

GRID = make_grid(8, 4)
R = np.random.default_rng(17)


def tiny_model(arch="sfno", seed=1, dtype=np.float32, m_kp=2):
    spec = model_spec(arch, 1, 8, m_kp, n_forcing=1, n_constant=1,
                      **({"patch_size": (2, 2)} if arch == "climax" else {}))
    return build_model(spec, GRID, seed=seed, dtype=dtype)


def random_sequences(m, kp=2, batch=2, dtype=np.float32):
    x_seq = [R.standard_normal((batch, kp, 4, 8)).astype(dtype) for _ in range(m + 1)]
    f_seq = [R.standard_normal((batch, 1, 4, 8)).astype(dtype) for _ in range(m)]
    c = R.standard_normal((1, 4, 8)).astype(dtype)
    return x_seq, f_seq, c


# ------------------------------------------------------------------ loss

def test_loss_zero_for_persistence_on_static_data():
    st_ = tiny_model()
    w = area_weights(GRID)
    x = R.standard_normal((2, 2, 4, 8)).astype(np.float32)
    x_seq = [x, x.copy(), x.copy()]   # constant in time
    f_seq = [np.zeros((2, 1, 4, 8), np.float32)] * 2
    c = np.zeros((1, 4, 8), np.float32)
    loss = T.multi_step_loss(st_, x_seq, f_seq, c, w)
    assert loss.item() == 0.0


def test_loss_m1_matches_hand_oracle():
    st_ = tiny_model()                 # fresh model: prediction = persistence
    w = area_weights(GRID)
    x_seq, f_seq, c = random_sequences(1)
    loss = T.multi_step_loss(st_, x_seq, f_seq, c, w).item()
    # oracle: direct summation of the defining formula for f == 0
    d2 = (x_seq[0].astype(np.float64) - x_seq[1]) ** 2
    expect = float((d2 * w.weights[:, None]).sum() / (1 * 2 * 4 * 8) / 2)
    assert loss == pytest.approx(expect, rel=1e-6)


def test_loss_m2_equals_manual_unroll():
    st_ = tiny_model(seed=7)
    for k, p in st_.params.items():    # nonzero head so predictions move
        p.data = R.standard_normal(p.shape).astype(np.float32) * 0.05
    w = area_weights(GRID)
    x_seq, f_seq, c = random_sequences(2)
    loss = T.multi_step_loss(st_, x_seq, f_seq, c, w).item()

    from rsl.models import model_forward
    cur = x_seq[0]
    total = 0.0
    for m in range(2):
        cur = cur + model_forward(st_, cur, f_seq[m], c)
        d2 = (cur.astype(np.float64) - x_seq[m + 1]) ** 2
        total += float((d2 * w.weights[:, None]).mean(axis=(-2, -1)).mean())
    assert loss == pytest.approx(total / 2, rel=1e-6)


def test_loss_positive_unless_perfect():
    st_ = tiny_model()
    w = area_weights(GRID)
    x_seq, f_seq, c = random_sequences(1)
    assert T.multi_step_loss(st_, x_seq, f_seq, c, w).item() > 0.0


def test_m2_gradient_through_fed_forward_chain():
    st_ = tiny_model(seed=3, dtype=np.float64)
    for k, p in st_.params.items():
        p.data = R.standard_normal(p.shape) * 0.05
        p.requires_grad = True
    w = area_weights(GRID)
    x_seq, f_seq, c = random_sequences(2, batch=1, dtype=np.float64)

    def loss():
        return T.multi_step_loss(st_, x_seq, f_seq, c, w)

    err = ad.check_gradients(loss, st_.params, eps=1e-4, sample=4, seed=2)
    assert err < 1e-3


# ------------------------------------------------------------------ optimizer

def test_adam_first_step_is_signed_lr():
    p = ad.tensor(np.zeros(4, np.float32), requires_grad=True)
    g = np.array([0.5, -0.25, 1.0, -2.0], np.float32)
    state = T.AdamState()
    T.adam_step({"p": p}, {"p": g}, state, lr=1e-3)
    assert np.allclose(p.data, -1e-3 * np.sign(g), atol=1e-6)


def test_adam_zero_gradient_no_move():
    p = ad.tensor(np.ones(3, np.float32), requires_grad=True)
    state = T.AdamState()
    T.adam_step({"p": p}, {"p": np.zeros(3, np.float32)}, state, lr=1e-2)
    assert np.array_equal(p.data, np.ones(3, np.float32))


def test_adam_deterministic_replay():
    def run():
        rng = np.random.default_rng(0)
        p = ad.tensor(np.ones(5, np.float32), requires_grad=True)
        state = T.AdamState()
        for _ in range(10):
            g = rng.standard_normal(5).astype(np.float32)
            T.adam_step({"p": p}, {"p": g}, state, lr=3e-3)
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_cosine_schedule_endpoints():
    assert T.cosine_lr(0, 20, 4e-3) == 4e-3
    assert T.cosine_lr(10, 20, 4e-3) == pytest.approx(2e-3)
    assert T.cosine_lr(19, 20, 4e-3) == pytest.approx(
        4e-3 * 0.5 * (1 + np.cos(np.pi * 19 / 20)))
    assert T.cosine_lr(19, 20, 4e-3) < 3e-5
    with pytest.raises(ConfigError):
        T.cosine_lr(20, 20, 4e-3)


def test_clip_rescales_to_max_norm():
    grads = {"a": np.array([0.003, 0.004])}
    clipped, norm = T.clip_grad_norm(grads, 0.001)
    assert norm == pytest.approx(0.005)
    assert np.sqrt((clipped["a"] ** 2).sum()) == pytest.approx(0.001)
    assert np.allclose(clipped["a"] / np.linalg.norm(clipped["a"]),
                       grads["a"] / np.linalg.norm(grads["a"]))


def test_clip_leaves_small_gradients():
    grads = {"a": np.array([3e-4, 4e-4])}
    clipped, norm = T.clip_grad_norm(grads, 0.001)
    assert norm == pytest.approx(5e-4)
    assert clipped["a"] is grads["a"]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), scale=st.floats(1e-6, 1e3))
def test_clip_norm_property(seed, scale):
    rng = np.random.default_rng(seed)
    grads = {f"p{i}": (rng.standard_normal(rng.integers(1, 6)) * scale)
             for i in range(3)}
    pre = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
    clipped, norm = T.clip_grad_norm(grads, 0.001)
    post = np.sqrt(sum((g ** 2).sum() for g in clipped.values()))
    assert norm == pytest.approx(pre, rel=1e-12)
    assert post == pytest.approx(min(pre, 0.001), rel=1e-9)
    # direction preserved
    if pre > 0:
        flat_pre = np.concatenate([g.ravel() for g in grads.values()])
        flat_post = np.concatenate([g.ravel() for g in clipped.values()])
        cos = flat_pre @ flat_post / (np.linalg.norm(flat_pre) * np.linalg.norm(flat_post))
        assert cos == pytest.approx(1.0, abs=1e-9)


def test_clip_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        T.clip_grad_norm({"a": np.array([np.nan])}, 0.001)


# ------------------------------------------------------------------ config

def test_replication_mode_locks_protocol():
    spec = model_spec("sfno", 4, 128, 8, replication=True)
    ok = T.TrainConfig(model=spec, m_steps=2, seed=597, variable_set="vars8",
                       train_start="1979-01-01", train_end="2007-12-31",
                       val_start="2008-01-01", val_end="2008-12-31",
                       replication=True)
    T.validate_train_config(ok)
    bad = T.TrainConfig(model=spec, m_steps=3, seed=597, variable_set="vars8",
                        train_start="1979-01-01", train_end="2007-12-31",
                        val_start="2008-01-01", val_end="2008-12-31",
                        replication=True)
    with pytest.raises(ConfigError):
        T.validate_train_config(bad)
    bad2 = T.TrainConfig(model=spec, m_steps=2, seed=597, variable_set="vars8",
                         train_start="1979-01-01", train_end="2007-12-31",
                         val_start="2008-01-01", val_end="2008-12-31",
                         batch_size=32, replication=True)
    with pytest.raises(ConfigError):
        T.validate_train_config(bad2)


def test_per_arch_default_lr():
    for arch, lr in (("climax", 4e-3), ("fcn", 4e-3), ("sfno", 1e-3)):
        spec = model_spec(arch, 2, 16, 2)
        cfg = T.TrainConfig(model=spec, m_steps=1, seed=1, variable_set="vars8",
                            train_start="2006-01-01", train_end="2006-12-31",
                            val_start="2007-01-01", val_end="2007-12-31")
        assert cfg.lr == lr


def test_paper_seed_list():
    assert T.PAPER_SEEDS == (597, 1152, 1826, 3909, 6153, 5513, 5707, 9813,
                             9941, 9982)


def test_config_json_roundtrip():
    spec = model_spec("fcn", 2, 16, 4)
    cfg = T.TrainConfig(model=spec, m_steps=2, seed=42, variable_set="vars8",
                        train_start="2006-01-01", train_end="2006-12-31",
                        val_start="2007-01-01", val_end="2007-12-31")
    back = T.TrainConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert back == cfg
    assert T.run_id(back) == T.run_id(cfg)


# ------------------------------------------------------------------ patience

def test_early_stopping_patience_sequence():
    """val losses {1.0, .9, .91, .92, .93, .94, .95} -> stop after epoch 7,
    best at epoch 2 (the scripted-sequence contract)."""
    losses = [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.5]   # 8th never reached
    best, best_epoch, stopped = float("inf"), 0, 0
    for epoch in range(1, len(losses) + 1):
        val = losses[epoch - 1]
        if val < best:
            best, best_epoch = val, epoch
        stopped = epoch
        if epoch - best_epoch >= 5:
            break
    assert (best_epoch, stopped) == (2, 7)


# ------------------------------------------------------------------ training

@pytest.fixture(scope="module")
def micro_store(tmp_path_factory):
    from rsl.data import SyntheticConfig, generate_synthetic_climate
    out = tmp_path_factory.mktemp("micro") / "store"
    return generate_synthetic_climate(
        SyntheticConfig(seed=5, years=1, grid=make_grid(16, 8),
                        variable_set=__import__("rsl.data", fromlist=["variable_set"]).variable_set("custom", 3)),
        out)


def micro_config(seed=597, epochs=2, arch="sfno"):
    spec = model_spec(arch, 1, 8, 3)
    return T.TrainConfig(model=spec, m_steps=1, seed=seed, variable_set="custom:3",
                         train_start="2006-01-01", train_end="2006-10-31",
                         val_start="2006-11-01", val_end="2006-11-30",
                         batch_size=64, epochs=epochs)


def test_train_smoke_and_record(micro_store):
    state, record, stats = T.train(micro_config(), micro_store)
    assert record.status == "ok"
    assert len(record.epochs) == 2
    assert record.best_val == min(e["val_loss"] for e in record.epochs)
    assert record.best_epoch in (1, 2)
    assert np.isfinite(record.persistence_val)


def test_train_determinism_bit_identical(micro_store, tmp_path):
    r1 = T.run_training(micro_config(), micro_store, tmp_path / "a")
    r2 = T.run_training(micro_config(), micro_store, tmp_path / "b")
    assert (tmp_path / "a" / "best.ckpt").read_bytes() == \
        (tmp_path / "b" / "best.ckpt").read_bytes()
    assert (tmp_path / "a" / "record.json").read_bytes() == \
        (tmp_path / "b" / "record.json").read_bytes()
    assert r1.to_json() == r2.to_json()


def test_train_different_seeds_differ(micro_store, tmp_path):
    T.run_training(micro_config(seed=597), micro_store, tmp_path / "a")
    T.run_training(micro_config(seed=1152), micro_store, tmp_path / "b")
    assert (tmp_path / "a" / "best.ckpt").read_bytes() != \
        (tmp_path / "b" / "best.ckpt").read_bytes()


def test_best_checkpoint_is_min_over_epochs(micro_store):
    state, record, _ = T.train(micro_config(epochs=3), micro_store)
    vals = [e["val_loss"] for e in record.epochs]
    assert record.best_val == min(vals)


def test_record_exposes_1step_rmse(micro_store):
    _, record, _ = T.train(micro_config(), micro_store)
    assert np.isfinite(record.val_rmse_1step)
    # with M=1 the best val loss is the squared 1-step RMSE
    assert record.val_rmse_1step == pytest.approx(np.sqrt(record.best_val), rel=1e-6)


def test_exploding_run_marked_failed(micro_store, tmp_path):
    cfg = micro_config(epochs=3)
    cfg.lr_init = 1e9          # guaranteed blow-up after the first update
    record = T.run_training(cfg, micro_store, tmp_path / "boom")
    assert record.status == "failed"
    assert record.diagnostics["reason"].startswith("non-finite")
    assert record.diagnostics["seed"] == cfg.seed
    assert (tmp_path / "boom" / "record.json").exists()


# ------------------------------------------------------------------ sweeps

def test_paper_grid_enumerates_1620():
    sweep = T.SweepSpec(archs=["climax", "fcn", "sfno"],
                        variable_sets=["vars8", "vars33"],
                        m_steps=[1, 2, 4], layers=[4, 6, 8],
                        dims=[128, 256, 512], seeds=list(T.PAPER_SEEDS))
    assert len(T.enumerate_runs(sweep)) == 1620


def test_sweep_run_and_resume(micro_store, tmp_path):
    sweep = T.SweepSpec(archs=["sfno"], variable_sets=["custom:3"],
                        m_steps=[1], layers=[1], dims=[8],
                        seeds=[597, 1152], train_start="2006-01-01",
                        train_end="2006-10-31", val_start="2006-11-01",
                        val_end="2006-11-30", batch_size=64, epochs=1)
    root = tmp_path / "sweep"
    manifest = T.run_sweep(sweep, micro_store.root, root)
    assert len(manifest["runs"]) == 2
    assert all(r["status"] == "ok" for r in manifest["runs"])
    rid = manifest["runs"][0]["id"]
    # resume: delete one run's record, only that one re-executes
    mtimes = {r["id"]: (root / r["id"] / "best.ckpt").stat().st_mtime_ns
              for r in manifest["runs"]}
    (root / rid / "record.json").unlink()
    manifest2 = T.run_sweep(sweep, micro_store.root, root)
    assert (root / rid / "best.ckpt").stat().st_mtime_ns != mtimes[rid]
    other = manifest["runs"][1]["id"]
    assert (root / other / "best.ckpt").stat().st_mtime_ns == mtimes[other]


def test_failed_artifact_write_leaves_run_incomplete(micro_store, tmp_path, monkeypatch):
    # a write that dies at stats.json must not leave a record.json behind,
    # so a resumed sweep retrains the run instead of skipping it
    sweep = T.SweepSpec(archs=["sfno"], variable_sets=["custom:3"],
                        m_steps=[1], layers=[1], dims=[8], seeds=[597],
                        train_start="2006-01-01", train_end="2006-10-31",
                        val_start="2006-11-01", val_end="2006-11-30",
                        batch_size=64, epochs=1)
    (cfg,) = T.enumerate_runs(sweep)
    root = tmp_path / "sweep"
    run_dir = root / T.run_id(cfg)
    real_write = T.write_json_atomic

    def fail_on_stats(path, doc):
        if path.name == "stats.json":
            raise OSError("killed while writing stats.json")
        real_write(path, doc)

    monkeypatch.setattr(T, "write_json_atomic", fail_on_stats)
    with pytest.raises(OSError, match="stats.json"):
        T.run_training(cfg, micro_store, run_dir)
    assert not (run_dir / "record.json").exists()
    assert not [p.name for p in run_dir.iterdir() if p.name.endswith(".tmp")]
    monkeypatch.undo()

    log = []
    manifest = T.run_sweep(sweep, micro_store.root, root, log=log.append)
    assert log == [f"run {T.run_id(cfg)}: ok"]
    assert manifest["runs"][0]["status"] == "ok"
    for name in ("best.ckpt", "last.ckpt", "stats.json", "log.txt", "record.json"):
        assert (run_dir / name).exists()
