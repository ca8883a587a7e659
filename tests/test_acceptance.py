"""Acceptance gate: every criterion checked at its stated tolerance, one
printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy items (training
three architectures, a 10-year rollout) share one synthetic world generated
once per session; total runtime is dominated by the trainability and
stability criteria.
"""

import hashlib
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

import rsl.evaluate
from rsl import autodiff as ad
from rsl import train as T
from rsl.cli import main as cli_main
from rsl.data import (SyntheticConfig, compute_normalization, compute_tisr,
                      forcing_provider, generate_synthetic_climate,
                      normalized_constants, sample_index, variable_set,
                      SOLAR_CONSTANT)
from rsl.evaluate import (aggregate_seeds, climatology_baseline, rollout,
                          stability_score, RolloutStats)
from rsl.grid import area_weighted_mean, area_weights, make_grid
from rsl.models import build_model, model_spec
from rsl.spectral import plan_sht, sht_forward, sht_inverse, spectral_energy, \
    synthesize_random
from rsl.train import multi_step_loss


def report(name: str, ok: bool, detail: str, t0: float):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name} [{detail}] " \
           f"({time.time() - t0:.1f}s)"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------- the world

@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """13 synthetic years, 32x16, vars8: 2006-07 train, 2008 val, 2009-18 eval."""
    out = tmp_path_factory.mktemp("acc") / "world"
    store = generate_synthetic_climate(
        SyntheticConfig(seed=7, years=13, grid=make_grid(32, 16)), out)
    return store


# Free-mode toy protocol per architecture: sfno/fcn train well with their
# replication learning rates; the deeper climax stack needs a hotter schedule
# and more optimizer steps at these tiny dims.
_TOY_PROTOCOL = {"sfno": (32, None), "fcn": (32, None), "climax": (16, 2e-2)}


def toy_train_config(arch, m_steps=1, seed=597, epochs=5):
    spec = model_spec(arch, n_layers=2, hidden_dim=32, n_prognostic=8)
    batch, lr = _TOY_PROTOCOL[arch]
    return T.TrainConfig(model=spec, m_steps=m_steps, seed=seed,
                         variable_set="vars8",
                         train_start="2006-01-01", train_end="2007-12-31",
                         val_start="2008-01-01", val_end="2008-01-31",
                         batch_size=batch, lr_init=lr, epochs=epochs)


# ---------------------------------------------------------------- criteria

def test_sample_count_fact():
    t0 = time.time()
    n = len(sample_index(datetime(1979, 1, 1), datetime(2007, 12, 31)))
    report("sample-count 42368", n == 42368, f"n={n}", t0)


def test_sweep_size_fact():
    t0 = time.time()
    sweep = T.SweepSpec(archs=["climax", "fcn", "sfno"],
                        variable_sets=["vars8", "vars33"],
                        m_steps=[1, 2, 4], layers=[4, 6, 8],
                        dims=[128, 256, 512], seeds=list(T.PAPER_SEEDS))
    n = len(T.enumerate_runs(sweep))
    report("sweep-size 1620", n == 1620, f"n={n}", t0)


def test_sht_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)
    plan = plan_sht(make_grid(32, 16))
    c, field = synthesize_random(plan, rng)      # band-limited to lmax_exact

    back64 = sht_forward(field, plan)
    rt64 = np.abs(back64 - c).max() / np.abs(c).max()

    f32 = field.astype(np.float32)
    c32 = sht_forward(f32, plan)
    f32b = sht_inverse(c32, plan).astype(np.float32)
    rt32 = np.abs(sht_forward(f32b, plan) - c32).max() / np.abs(c32).max()

    w = area_weights(plan.grid)
    pars = abs(area_weighted_mean(field ** 2, w) - spectral_energy(c, plan)) \
        / area_weighted_mean(field ** 2, w)

    a00 = sht_forward(np.ones(plan.grid.shape), plan)[0, 0]
    da00 = abs(a00 - np.sqrt(4 * np.pi))

    ok = rt32 < 1e-6 and rt64 < 1e-10 and pars < 1e-5 and da00 < 1e-6
    report("SHT correctness", ok,
           f"rt32={rt32:.2e} rt64={rt64:.2e} parseval={pars:.2e} a00={da00:.2e}",
           t0)


def test_autodiff_multi_step_gradients():
    t0 = time.time()
    grid = make_grid(8, 4)
    w = area_weights(grid)
    rng = np.random.default_rng(3)
    worst = {}
    for arch in ("climax", "fcn", "sfno"):
        spec = model_spec(arch, n_layers=2, hidden_dim=16, n_prognostic=2,
                          n_forcing=1, n_constant=2,
                          **({"patch_size": (2, 2)} if arch == "climax" else {}))
        st = build_model(spec, grid, seed=1, dtype=np.float64)
        for p in st.params.values():   # move off the zero-init head
            p.data = rng.standard_normal(p.shape) * 0.05
        x_seq = [rng.standard_normal((1, 2, 4, 8)) for _ in range(3)]
        f_seq = [rng.standard_normal((1, 1, 4, 8)) for _ in range(2)]
        c = rng.standard_normal((2, 4, 8))

        def loss():
            return multi_step_loss(st, x_seq, f_seq, c, w)

        worst[arch] = ad.check_gradients(loss, st.params, eps=1e-4,
                                         sample=3, seed=11)
    ok = all(v < 1e-3 for v in worst.values())
    report("autodiff M=2 gradients", ok,
           " ".join(f"{k}={v:.2e}" for k, v in worst.items()), t0)


def test_loss_semantics():
    t0 = time.time()
    grid = make_grid(8, 4)
    w = area_weights(grid)
    rng = np.random.default_rng(4)
    spec = model_spec("sfno", 1, 8, 2, n_forcing=1, n_constant=1)
    st = build_model(spec, grid, seed=2)
    for p in st.params.values():
        p.data = (rng.standard_normal(p.shape) * 0.05).astype(np.float32)
    x_seq = [rng.standard_normal((2, 2, 4, 8)).astype(np.float32) for _ in range(3)]
    f_seq = [rng.standard_normal((2, 1, 4, 8)).astype(np.float32) for _ in range(2)]
    c = rng.standard_normal((1, 4, 8)).astype(np.float32)
    loss = multi_step_loss(st, x_seq, f_seq, c, w).item()

    from rsl.models import model_forward
    cur = x_seq[0]
    total = 0.0
    for m in range(2):
        cur = cur + model_forward(st, cur, f_seq[m], c)
        d2 = (cur.astype(np.float64) - x_seq[m + 1]) ** 2
        total += float((d2 * w.weights[:, None]).mean(axis=(-2, -1)).mean())
    manual = total / 2
    rel = abs(loss - manual) / abs(manual)

    fresh = build_model(spec, grid, seed=3)     # zero head: persistence
    x = rng.standard_normal((1, 2, 4, 8)).astype(np.float32)
    static = multi_step_loss(fresh, [x, x.copy(), x.copy()],
                             [np.zeros((1, 1, 4, 8), np.float32)] * 2,
                             np.zeros((1, 4, 8), np.float32), w).item()
    ok = rel < 1e-6 and static == 0.0
    report("loss semantics", ok, f"unroll rel={rel:.2e} static={static}", t0)


def test_optimizer_protocol(scripted_train):
    t0 = time.time()
    cos_ok = (T.cosine_lr(0, 20, 4e-3) == 4e-3
              and T.cosine_lr(10, 20, 4e-3) == pytest.approx(2e-3)
              and T.cosine_lr(19, 20, 4e-3) < 3e-5)
    clipped, norm = T.clip_grad_norm({"g": np.array([0.003, 0.004])}, 0.001)
    post = float(np.sqrt((clipped["g"] ** 2).sum()))
    clip_ok = abs(norm - 0.005) < 1e-12 and abs(post - 0.001) < 1e-9

    # train() on scripted validation losses stops after epoch 7 with epoch 2's weights
    state, record, held = scripted_train([1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.5])
    pat_ok = ((record.best_epoch, record.stopped_epoch, len(record.epochs)) == (2, 7, 7)
              and all(np.array_equal(p.data, held[1][k]) for k, p in state.params.items()))
    report("optimizer protocol", cos_ok and clip_ok and pat_ok,
           f"cosine={cos_ok} clip={clip_ok} patience={pat_ok}", t0)


def test_determinism(tmp_path_factory):
    t0 = time.time()
    tmp = tmp_path_factory.mktemp("det")
    store_dir = tmp / "ds"
    generate_synthetic_climate(
        SyntheticConfig(seed=5, years=2, grid=make_grid(16, 8),
                        variable_set=variable_set("custom", 3)), store_dir)
    args = ["train", "--data", str(store_dir), "--arch", "sfno",
            "--layers", "1", "--dim", "8", "--m-steps", "1", "--vars",
            "custom:3", "--train-start", "2006-01-01", "--train-end",
            "2006-10-31", "--val-start", "2006-11-01", "--val-end",
            "2006-11-30", "--batch-size", "64", "--epochs", "2"]
    digests = {}
    for rep_dir, seed in (("a", 597), ("b", 597), ("c", 1152)):
        run_dir = tmp / rep_dir / "run"
        assert cli_main(args + ["--seed", str(seed), "--run-dir", str(run_dir)]) == 0
        assert cli_main(["rollout", "--run", str(run_dir), "--reference",
                         str(store_dir), "--start", "2007-06-01T00:00:00",
                         "--steps", "200"]) == 0
        digests[rep_dir] = {
            "ckpt": hashlib.sha256((run_dir / "best.ckpt").read_bytes()).hexdigest(),
            "score": hashlib.sha256((run_dir / "score.json").read_bytes()).hexdigest(),
        }
    same = digests["a"] == digests["b"]
    differ = digests["a"]["ckpt"] != digests["c"]["ckpt"]
    report("determinism", same and differ,
           f"replay identical={same}, seeds 597/1152 differ={differ}", t0)


@pytest.mark.slow
@pytest.mark.parametrize("arch", ["sfno", "fcn", "climax"])
def test_trainability(world, arch):
    t0 = time.time()
    state, record, stats = T.train(toy_train_config(arch), world)
    ratio = record.best_val / record.persistence_val
    report(f"trainability {arch}", record.status == "ok" and ratio < 0.8,
           f"val/persistence={ratio:.3f}", t0)


@pytest.mark.slow
def test_stability_harness(world):
    t0 = time.time()
    grid = world.grid
    w = area_weights(grid)

    # (a) an amplifying map is flagged non-finite with a recorded step
    spec = model_spec("sfno", 1, 8, 8)
    dummy = build_model(spec, grid, seed=0)
    orig = rsl.evaluate.model_forward
    rsl.evaluate.model_forward = lambda s, x, f, c: 0.5 * x     # X -> 1.5 X
    try:
        names = world.prognostic
        fake_stats = compute_normalization(world, datetime(2006, 1, 1),
                                           datetime(2006, 3, 31))
        amp = rollout(dummy, np.ones((8,) + grid.shape, np.float32),
                      lambda m: np.zeros((1,) + grid.shape, np.float32),
                      np.zeros((4,) + grid.shape, np.float32), 400,
                      fake_stats, w, names)
    finally:
        rsl.evaluate.model_forward = orig
    blow_ok = (not amp.finite and amp.first_nonfinite_step is not None
               and amp.first_nonfinite_step < 300)

    # (b) trained toy SFNO rolls out 10 synthetic years, score < 3x climatology
    cfg = toy_train_config("sfno", m_steps=2)
    state, record, stats = T.train(cfg, world)
    start = datetime(2009, 1, 1)
    i0 = world.time_index(start)
    x0 = np.stack([stats.normalize(v, world.read_steps(v, [i0])[0])
                   for v in world.prognostic]).astype(np.float32)
    prov = forcing_provider(world, stats)
    n = 14608
    rs = rollout(state, x0, lambda m: prov(i0 + m), normalized_constants(world),
                 n, stats, w, world.prognostic, start_time=start)
    varset = world.varset
    rep = stability_score(rs, world, stats, w, varset, start, n)
    clim = climatology_baseline(world, world, stats, w, varset,
                                datetime(2006, 1, 1), 2920, start, n)
    roll_ok = rs.finite and rs.count == n and rep.aggregate < 3.0 * clim.aggregate

    # (c) climatology scored against its own period is exactly zero
    self_rep = climatology_baseline(world, world, stats, w, varset,
                                    datetime(2006, 1, 1), 2920,
                                    datetime(2006, 1, 1), 2920)
    self_ok = self_rep.aggregate == 0.0

    report("stability harness", blow_ok and roll_ok and self_ok,
           f"blowup_step={amp.first_nonfinite_step} finite={rs.finite} "
           f"score={rep.aggregate:.4f} clim={clim.aggregate:.4f} "
           f"self={self_rep.aggregate}", t0)


def test_aggregation_semantics():
    t0 = time.time()
    out = aggregate_seeds([0.1, 0.2, float("inf")])
    ok = (out["finite_count"] == 2 and out["n_seeds"] == 3
          and out["mean"] == pytest.approx(0.15))
    report("aggregation semantics", ok,
           f"mean={out['mean']} finite_count={out['finite_count']}", t0)


def test_temporal_std_scoring(world):
    t0 = time.time()
    w = area_weights(world.grid)
    stats = compute_normalization(world, datetime(2006, 1, 1),
                                  datetime(2007, 12, 31))
    names = world.prognostic
    t_ref = datetime(2008, 2, 1)
    n = 600
    i0 = world.time_index(t_ref)

    # streaming rollout stats replaying the truth: self-score must be zero
    rs = RolloutStats(variables=names, grid=world.grid)
    for m in range(n):
        rs.update(np.stack([world.read_steps(v, [i0 + m])[0] for v in names]), w)
    rep = stability_score(rs, world, stats, w, world.varset, t_ref, n,
                          mode="std")
    self_zero = rep.aggregate < 1e-6

    # streaming temporal std matches the two-pass oracle
    k = names.index("tas")
    full = world.read_range("tas", i0, i0 + n).astype(np.float64)
    rel = np.abs(rs.std[k] - full.std(axis=0)).max() / full.std(axis=0).max()
    report("temporal-std scoring", self_zero and rel < 1e-4,
           f"self={rep.aggregate:.2e} oracle rel={rel:.2e}", t0)


def test_tisr_sanity():
    t0 = time.time()
    grid = make_grid(16, 8)
    w = area_weights(grid)
    vals = []
    t = datetime(2001, 1, 1, 0)
    while t < datetime(2002, 1, 1):
        vals.append(area_weighted_mean(compute_tisr(t, grid), w))
        t += timedelta(hours=18)
    mean = float(np.mean(vals))
    rel = abs(mean - SOLAR_CONSTANT / 4) / (SOLAR_CONSTANT / 4)
    south = compute_tisr(datetime(2001, 6, 21, 6), make_grid(32, 16))
    north = compute_tisr(datetime(2001, 12, 21, 6), make_grid(32, 16))
    polar = south[0].max() == 0.0 and north[-1].max() == 0.0
    report("TISR sanity", rel < 0.02 and polar,
           f"annual mean={mean:.1f} rel={rel:.4f} polar_night={polar}", t0)
