import dataclasses
import hashlib
import json
from concurrent.futures import Future
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
    w = area_weights(GRID)
    x_seq, f_seq, c = random_sequences(2, batch=1, dtype=np.float64)

    def loss():
        return T.multi_step_loss(st_, x_seq, f_seq, c, w)

    err = ad.check_gradients(loss, st_.params, eps=1e-4, sample=4, seed=2)
    assert err < 1e-3


# Digests of the float32 gradients of one 2-step loss on a 16x8 grid, B=2, one
# per architecture. They pin the engine's arithmetic and its order, so a change
# to how the graph is stored or freed must reproduce them bit for bit. A
# deliberate numerics change must retake them from the new code and say so.
# Taken with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; another build may
# legitimately change the low bits.
GOLDEN_GRAD_SHA256 = {
    "sfno": "a07a7f6d596a2b154f38c23cf403100d5fc117647dc5704b09574a6a958f7a75",
    "fcn": "f9a617dff361e15645fcb810407279903788ce1a104eb110781304b52106c8cd",
    "climax": "8f80db63206efc4d3a8eff6fdd9a8df57f2f93480ea885f2d3c0f2469ab77072",
}


@pytest.mark.parametrize("arch", sorted(GOLDEN_GRAD_SHA256))
def test_gradients_are_pinned(arch):
    rng = np.random.default_rng(5)
    spec = model_spec(arch, 2, 16, 3, n_forcing=1, n_constant=2, n_heads=4, n_blocks=2)
    grid = make_grid(16, 8)
    state = build_model(spec, grid, seed=3)
    for p in state.params.values():    # nonzero heads and biases, so every gradient moves
        if not p.data.any():
            p.data = (rng.standard_normal(p.shape) * 0.1).astype(np.float32)
    x_seq = [rng.standard_normal((2, 3, 8, 16)).astype(np.float32) for _ in range(3)]
    f_seq = [rng.standard_normal((2, 1, 8, 16)).astype(np.float32) for _ in range(2)]
    c = rng.standard_normal((2, 8, 16)).astype(np.float32)
    loss = T.multi_step_loss(state, x_seq, f_seq, c, area_weights(grid))
    ad.backward(loss)
    h = hashlib.sha256(np.float32(loss.item()).tobytes())
    for name in sorted(state.params):
        g = state.params[name].grad
        assert g is not None and g.dtype == np.float32 and g.any(), name
        h.update(name.encode() + np.ascontiguousarray(g).tobytes())
    assert h.hexdigest() == GOLDEN_GRAD_SHA256[arch]


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
    grads = {"a": np.array([np.nan])}
    clipped, norm = T.clip_grad_norm(grads, 0.001)
    assert not np.isfinite(norm)
    assert clipped["a"] is grads["a"]


# ------------------------------------------------------------------ config

def test_replication_mode_locks_protocol():
    spec = model_spec("sfno", 4, 128, 8)
    ok = T.TrainConfig(model=spec, m_steps=2, seed=597, variable_set="vars8",
                       train_start="1979-01-01", train_end="2007-12-31",
                       val_start="2008-01-01", val_end="2008-12-31",
                       batch_size=64, epochs=20, replication=True)
    free = dataclasses.replace(ok, replication=False)
    for layers, dim in ((5, 128), (4, 100)):    # outside the paper's L and D
        off_grid = model_spec("sfno", layers, dim, 8)
        with pytest.raises(ConfigError, match="replication mode requires"):
            dataclasses.replace(ok, model=off_grid)
        dataclasses.replace(free, model=off_grid)
    for change in (dict(m_steps=3), dict(batch_size=32), dict(epochs=5),
                   dict(early_stop_patience=4), dict(grad_clip_norm=0.01),
                   dict(lr_init=4e-3)):         # sfno's replication lr is 1e-3
        with pytest.raises(ConfigError, match="replication mode"):
            dataclasses.replace(ok, **change)
        dataclasses.replace(free, **change)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ok.batch_size = 32


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

def same_weights(state, held) -> bool:
    return state.params.keys() == held.keys() and all(
        np.array_equal(p.data, held[k]) for k, p in state.params.items())


def test_early_stopping_patience_sequence(scripted_train):
    """val losses {1.0, .9, .91, .92, .93, .94, .95} -> train() stops after
    epoch 7, before the better 8th, and returns the weights epoch 2's
    validation saw."""
    state, record, held = scripted_train([1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.5])
    assert (record.best_epoch, record.stopped_epoch, len(record.epochs)) == (2, 7, 7)
    assert record.status == "ok" and record.best_val == pytest.approx(0.9)
    assert record.val_rmse_1step == pytest.approx(np.sqrt(0.9))
    assert same_weights(state, held[1]) and not same_weights(state, held[6])


def test_failure_after_a_best_epoch_returns_its_weights(scripted_train):
    state, record, held = scripted_train([0.9, 1.0, 0.8], fail_at=(3, 1))
    assert record.status == "failed" and record.diagnostics["reason"] == \
        "non-finite training loss"
    assert (record.diagnostics["epoch"], record.diagnostics["batch"]) == (3, 1)
    assert (record.best_epoch, record.stopped_epoch, len(record.epochs)) == (1, 3, 2)
    assert same_weights(state, held[0]) and not same_weights(state, held[1])


# ------------------------------------------------------------------ training

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
    cfg = dataclasses.replace(micro_config(epochs=3), lr_init=1e9)   # blows up at once
    record = T.run_training(cfg, micro_store, tmp_path / "boom")
    assert record.status == "failed"
    assert record.diagnostics["reason"].startswith("non-finite")
    assert record.diagnostics["seed"] == cfg.seed
    assert (tmp_path / "boom" / "record.json").exists()


def test_non_finite_gradient_marks_run_failed(micro_store, monkeypatch):
    built, real_build, real_backward = [], T.build_model, ad.backward

    def build(*args, **kw):
        built.append(real_build(*args, **kw))
        return built[-1]

    def backward_then_poison(loss):
        real_backward(loss)
        built[0].params["enc.w"].grad[0, 0] = np.nan     # the loss itself stays finite

    monkeypatch.setattr(T, "build_model", build)
    monkeypatch.setattr(ad, "backward", backward_then_poison)
    _, record, _ = T.train(micro_config(epochs=3), micro_store)
    assert record.status == "failed" and record.stopped_epoch == 1 and not record.epochs
    assert record.diagnostics == {"reason": "non-finite gradient norm",
                                  "run_id": T.run_id(micro_config(epochs=3)),
                                  "epoch": 1, "batch": 0, "seed": 597}


# ------------------------------------------------------------------ sweeps

def test_paper_grid_enumerates_1620():
    sweep = T.SweepSpec(archs=["climax", "fcn", "sfno"],
                        variable_sets=["vars8", "vars33"],
                        m_steps=[1, 2, 4], layers=[4, 6, 8],
                        dims=[128, 256, 512], seeds=list(T.PAPER_SEEDS))
    assert len(T.enumerate_runs(sweep)) == 1620


# The micro grid's training settings, shared by every run of it.
MICRO_TRAINING = dict(train_start="2006-01-01", train_end="2006-10-31",
                      val_start="2006-11-01", val_end="2006-11-30",
                      batch_size=64, epochs=1)


def test_sweep_run_and_resume(micro_store, tmp_path):
    sweep = T.SweepSpec(archs=["sfno"], variable_sets=["custom:3"],
                        m_steps=[1], layers=[1], dims=[8], seeds=[597, 1152])
    configs = T.enumerate_runs(sweep, **MICRO_TRAINING)
    root = tmp_path / "sweep"
    manifest = T.run_sweep(configs, micro_store.root, root)
    assert len(manifest["runs"]) == 2
    assert all(r["status"] == "ok" for r in manifest["runs"])
    rid = manifest["runs"][0]["id"]
    # resume: delete one run's record, only that one re-executes
    mtimes = {r["id"]: (root / r["id"] / "best.ckpt").stat().st_mtime_ns
              for r in manifest["runs"]}
    (root / rid / "record.json").unlink()
    T.run_sweep(configs, micro_store.root, root)
    assert (root / rid / "best.ckpt").stat().st_mtime_ns != mtimes[rid]
    other = manifest["runs"][1]["id"]
    assert (root / other / "best.ckpt").stat().st_mtime_ns == mtimes[other]


def test_parallel_sweep_matches_serial(micro_store, tmp_path):
    sweep = T.SweepSpec(archs=["sfno", "fcn"], variable_sets=["custom:3"],
                        m_steps=[1], layers=[1], dims=[8], seeds=[597, 1152])
    configs = T.enumerate_runs(sweep, **MICRO_TRAINING)
    manifests = [T.run_sweep(configs, micro_store.root, tmp_path / str(jobs), jobs=jobs)
                 for jobs in (1, 2)]
    assert manifests[0] == manifests[1]
    assert [r["status"] for r in manifests[0]["runs"]] == ["ok"] * 4
    for r in manifests[0]["runs"]:
        assert (tmp_path / "1" / r["id"] / "best.ckpt").read_bytes() == \
            (tmp_path / "2" / r["id"] / "best.ckpt").read_bytes()


def test_sweep_pool_holds_no_more_workers_than_runs_to_do(micro_store, tmp_path,
                                                          monkeypatch):
    # A fork pool starts all its workers at the first submit, so --jobs 64 on
    # three runs must not ask for 64. The fake pool runs each submit inline.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(T, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(T, "_sweep_worker", lambda cfg_json, store_dir, run_dir: ("ok", ""))
    sweep = T.SweepSpec(archs=["sfno"], variable_sets=["custom:3"],
                        m_steps=[1], layers=[1], dims=[8], seeds=[597, 1152, 1826])
    configs = T.enumerate_runs(sweep, **MICRO_TRAINING)
    root = tmp_path / "sweep"
    for n_done in range(3):            # a resumed sweep skips the runs with a record
        if n_done:
            done = root / T.run_id(configs[n_done - 1])
            done.mkdir()
            (done / "record.json").write_text('{"status": "ok"}')
        manifest = T.run_sweep(configs, micro_store.root, root, jobs=64)
        assert [r["status"] for r in manifest["runs"]] == ["ok"] * 3
    assert sizes == [3, 2]              # the last run left runs in this process


def test_spellings_of_one_experiment_share_its_run_id():
    canonical = micro_config()
    sloppy = T.TrainConfig(model=canonical.model, m_steps=1, seed=597,
                           variable_set="custom:03", train_start="2006-1-1",
                           train_end="2006-10-31", val_start="2006-11-1",
                           val_end="2006-11-30", batch_size=64, epochs=2)
    assert sloppy == canonical
    assert T.run_id(sloppy) == T.run_id(canonical)
    assert (sloppy.variable_set, sloppy.train_start) == ("custom:3", "2006-01-01")


def test_failed_artifact_write_leaves_run_incomplete(micro_store, tmp_path, monkeypatch):
    # a write that dies at stats.json must not leave a record.json behind,
    # so a resumed sweep retrains the run instead of skipping it
    sweep = T.SweepSpec(archs=["sfno"], variable_sets=["custom:3"],
                        m_steps=[1], layers=[1], dims=[8], seeds=[597])
    (cfg,) = T.enumerate_runs(sweep, **MICRO_TRAINING)
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
    # the same fault inside a sweep: the run is an "error", with no record
    log = []
    manifest = T.run_sweep([cfg], micro_store.root, root, log=log.append)
    assert manifest["runs"][0]["status"] == "error"
    assert log[0].startswith(f"run {T.run_id(cfg)}: error\nTraceback")
    assert log[0].endswith("OSError: killed while writing stats.json")
    assert not (run_dir / "record.json").exists()
    monkeypatch.undo()

    log = []
    manifest = T.run_sweep([cfg], micro_store.root, root, log=log.append)
    assert log == [f"run {T.run_id(cfg)}: ok"]
    assert manifest["runs"][0]["status"] == "ok"
    for name in ("best.ckpt", "stats.json", "log.txt", "record.json"):
        assert (run_dir / name).exists()
