import json
import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsl import evaluate as E
from rsl.data import DatasetStore, compute_normalization, variable_set
from rsl.errors import ConfigError
from rsl.grid import area_weights, make_grid
from rsl.models import ModelState, build_model, model_spec

GRID = make_grid(16, 8)
R = np.random.default_rng(31)


def fresh_model(kp=3, seed=0):
    spec = model_spec("sfno", 1, 8, kp, n_forcing=1, n_constant=4)
    return build_model(spec, GRID, seed=seed)


class FakeStats:
    """Identity normalization for synthetic unit tests."""

    def __init__(self, names):
        self.values = {n: (0.0, 1.0) for n in names}


def zero_forcing(_):
    return np.zeros((1,) + GRID.shape, np.float32)


# ------------------------------------------------------------- detect_blowup

def test_detect_blowup_thresholds():
    assert not E.detect_blowup(np.zeros((2, 3)))
    assert E.detect_blowup(np.array([1.0, np.nan]))
    assert E.detect_blowup(np.array([np.inf]))
    assert not E.detect_blowup(np.array([9999.0]))
    assert E.detect_blowup(np.array([10001.0]))


# ------------------------------------------------------------- rollout

def test_persistence_rollout_stats():
    st_ = fresh_model()
    names = ("a", "b", "c")
    x0 = R.standard_normal((3,) + GRID.shape).astype(np.float32)
    c = np.zeros((4,) + GRID.shape, np.float32)
    stats = FakeStats(names)
    out = E.rollout(st_, x0, zero_forcing, c, 50, stats, area_weights(GRID), names)
    assert out.finite and out.count == 50
    assert np.allclose(out.mean, x0, atol=1e-6)
    assert np.allclose(out.std, 0.0, atol=1e-6)


def test_ten_year_step_count():
    # calendar arithmetic: 2009-2018 has 3652 days
    start = datetime(2009, 1, 1)
    end = datetime(2019, 1, 1)
    assert int((end - start).total_seconds()) // (6 * 3600) == 14608


def test_amplifying_model_flagged_nonfinite():
    st_ = fresh_model()

    class Amplifier(ModelState):
        pass

    amp = Amplifier(st_.spec, st_.grid, st_.params, st_.plan, st_.dtype)
    names = ("a", "b", "c")
    x0 = np.full((3,) + GRID.shape, 1.0, np.float32)
    stats = FakeStats(names)

    import rsl.evaluate as ev
    orig = ev.model_forward
    ev.model_forward = lambda s, x, f, c: 0.5 * x      # X <- 1.5 X
    try:
        out = E.rollout(amp, x0, zero_forcing,
                        np.zeros((4,) + GRID.shape, np.float32), 400, stats,
                        area_weights(GRID), names)
    finally:
        ev.model_forward = orig
    assert not out.finite
    assert out.first_nonfinite_step is not None and out.first_nonfinite_step < 300


def test_streaming_stats_match_two_pass_oracle():
    names = ("a", "b")
    w = area_weights(GRID)
    stats = E.RolloutStats(variables=names, grid=GRID)
    fields = R.standard_normal((200, 2) + GRID.shape)
    for f in fields:
        stats.update(f, w)
    assert np.abs(stats.mean - fields.mean(axis=0)).max() < 1e-10
    two_pass_std = fields.std(axis=0)        # population convention
    rel = np.abs(stats.std - two_pass_std).max() / two_pass_std.max()
    assert rel < 1e-4


def test_rollout_save_layout(tmp_path):
    st_ = fresh_model()
    names = ("a", "b", "c")
    x0 = R.standard_normal((3,) + GRID.shape).astype(np.float32)
    out = E.rollout(st_, x0, zero_forcing, np.zeros((4,) + GRID.shape, np.float32),
                    10, FakeStats(names), area_weights(GRID), names,
                    start_time=datetime(2009, 1, 1))
    out.save(tmp_path / "rollout")
    assert (tmp_path / "rollout" / "means.bin").exists()
    assert (tmp_path / "rollout" / "stds.bin").exists()
    lines = (tmp_path / "rollout" / "timeseries.csv").read_text().strip().splitlines()
    assert lines[0] == "step,a,b,c"
    assert len(lines) == 11
    import json
    meta = json.loads((tmp_path / "rollout" / "meta.json").read_text())
    assert meta["steps"] == 10 and meta["finite"] is True


ROLLOUT_FILES = ("means.bin", "stds.bin", "timeseries.csv", "meta.json")


@pytest.mark.parametrize("failing", ROLLOUT_FILES)
def test_rollout_files_survive_a_failed_write(tmp_path, monkeypatch, failing):
    from contextlib import contextmanager
    from rsl import atomic
    names = ("a", "b", "c")
    x0 = R.standard_normal((3,) + GRID.shape).astype(np.float32)

    def run(steps):
        return E.rollout(fresh_model(), x0, zero_forcing,
                         np.zeros((4,) + GRID.shape, np.float32), steps,
                         FakeStats(names), area_weights(GRID), names,
                         start_time=datetime(2009, 1, 1))

    old_dir, new_dir, out = tmp_path / "old", tmp_path / "new", tmp_path / "rollout"
    run(4).save(old_dir)
    run(6).save(new_dir)
    run(4).save(out)
    real = atomic.atomic_path

    @contextmanager
    def fail_before_rename(path):
        with real(path) as tmp:
            yield tmp
            if path.name == failing:
                tmp.write_bytes(tmp.read_bytes()[:10])
                raise OSError("disk full")

    monkeypatch.setattr(atomic, "atomic_path", fail_before_rename)
    monkeypatch.setattr(E, "atomic_path", fail_before_rename)
    with pytest.raises(OSError, match="disk full"):
        run(6).save(out)
    assert sorted(p.name for p in out.iterdir()) == sorted(ROLLOUT_FILES)
    for name in ROLLOUT_FILES:
        got = (out / name).read_bytes()
        assert got in ((old_dir / name).read_bytes(), (new_dir / name).read_bytes())
    assert (out / failing).read_bytes() == (old_dir / failing).read_bytes()
    with pytest.raises(OSError, match="disk full"):
        run(6).save(tmp_path / "fresh")
    assert failing not in [p.name for p in (tmp_path / "fresh").iterdir()]
    assert all(not p.name.startswith(".") for p in (tmp_path / "fresh").iterdir())


# ------------------------------------------------------------- scoring

@pytest.fixture(scope="module")
def scored_world(tmp_path_factory):
    """Small store + a fake rollout whose stats equal the reference."""
    from rsl.data import SyntheticConfig, generate_synthetic_climate
    out = tmp_path_factory.mktemp("ev") / "store"
    store = generate_synthetic_climate(
        SyntheticConfig(seed=99, years=3, grid=GRID,
                        variable_set=variable_set("custom", 5)), out)
    stats = compute_normalization(store, datetime(2006, 1, 1),
                                  datetime(2006, 12, 31))
    return store, stats


def test_score_self_is_zero(scored_world):
    store, stats = scored_world
    w = area_weights(GRID)
    t0 = datetime(2007, 1, 1)
    n = 800
    mu, sd = E._reference_stats(store, store.prognostic, t0, n)
    rs = E.RolloutStats(variables=store.prognostic, grid=GRID, count=n,
                        mean=mu, m2=(sd ** 2) * n, finite=True)
    rep = E.stability_score(rs, store, stats, w, store.varset, t0, n)
    assert rep.aggregate == 0.0
    rep_std = E.stability_score(rs, store, stats, w, store.varset, t0, n,
                                mode="std")
    assert rep_std.aggregate == 0.0


def test_unit_offset_scores_one(scored_world):
    store, stats = scored_world
    w = area_weights(GRID)
    t0 = datetime(2007, 1, 1)
    n = 400
    mu, sd = E._reference_stats(store, store.prognostic, t0, n)
    sds = np.array([stats.values[v][1] for v in store.prognostic])
    rs = E.RolloutStats(variables=store.prognostic, grid=GRID, count=n,
                        mean=mu + sds[:, None, None], m2=(sd ** 2) * n,
                        finite=True)
    rep = E.stability_score(rs, store, stats, w, store.varset, t0, n)
    for v in store.varset.evaluation_subset:
        assert rep.per_variable[v]["norm"] == pytest.approx(1.0, rel=1e-6)
    assert rep.aggregate == pytest.approx(1.0, rel=1e-6)


def test_score_matches_full_trajectory_oracle(scored_world):
    store, stats = scored_world
    w = area_weights(GRID)
    names = store.prognostic
    t0 = datetime(2007, 3, 1)
    n = 320
    # synthetic "rollout": replay the truth plus a fixed bias field
    bias = 0.3 * R.standard_normal((len(names),) + GRID.shape)
    i0 = store.time_index(t0)
    rs = E.RolloutStats(variables=names, grid=GRID)
    traj = []
    for m in range(n):
        f = np.stack([store.read_steps(v, [i0 + m])[0] for v in names]) + bias
        rs.update(f, w)
        traj.append(f)
    rep = E.stability_score(rs, store, stats, w, store.varset, t0, n)
    # oracle: full two-pass statistics and direct RMSE
    traj = np.asarray(traj, np.float64)
    ref = np.stack([store.read_range(v, i0, i0 + n).astype(np.float64).mean(axis=0)
                    for v in names])
    scores = []
    for v in store.varset.evaluation_subset:
        k = names.index(v)
        d = (traj[:, k].mean(axis=0) - ref[k]) / stats.values[v][1]
        scores.append(np.sqrt((d ** 2 * w.weights[:, None]).mean()))
    assert rep.aggregate == pytest.approx(float(np.mean(scores)), rel=1e-4)


def test_nonfinite_rollout_scores_infinite(scored_world):
    store, stats = scored_world
    rs = E.RolloutStats(variables=store.prognostic, grid=GRID, finite=False,
                        first_nonfinite_step=17)
    rep = E.stability_score(rs, store, stats, area_weights(GRID), store.varset,
                            datetime(2007, 1, 1), 10)
    assert math.isinf(rep.aggregate) and not rep.finite


def test_score_rotation_invariance(scored_world):
    # rotating both prediction and reference relabels longitudes only
    store, stats = scored_world
    w = area_weights(GRID)
    names = store.prognostic
    t0 = datetime(2007, 1, 1)
    n = 200
    mu, sd = E._reference_stats(store, names, t0, n)
    pred = mu + 0.25 * R.standard_normal(mu.shape)
    scores = []
    for shift in (0, 5):
        d = np.roll(pred - mu, shift, axis=-1)
        v0 = names.index(store.varset.evaluation_subset[0])
        scores.append(np.sqrt(((d[v0] / stats.values[names[v0]][1]) ** 2
                               * w.weights[:, None]).mean()))
    assert scores[0] == pytest.approx(scores[1], rel=1e-12)


# ------------------------------------------------------------- climatology

def test_climatology_self_period_is_zero(scored_world):
    store, stats = scored_world
    w = area_weights(GRID)
    t0 = datetime(2006, 1, 1)
    rep = E.climatology_baseline(store, store, stats, w, store.varset,
                                 t0, 1200, t0, 1200)
    assert rep.aggregate == 0.0


def test_climatology_refuses_stores_on_different_grids(scored_world, tmp_path):
    store, stats = scored_world
    other = DatasetStore.create(tmp_path / "other", make_grid(32, 16), store.varset,
                                datetime(2006, 1, 1), 1200)
    t0 = datetime(2006, 1, 1)
    grid = {store: "16x8", other: "32x16"}
    for train_store, scored in ((other, store), (store, other)):
        with pytest.raises(ConfigError) as exc:
            E.climatology_baseline(train_store, scored, stats, area_weights(GRID),
                                   store.varset, t0, 1200, t0, 1200)
        assert str(exc.value) == (
            f"the training store {train_store.root} ({grid[train_store]}) and the scored "
            f"store {scored.root} ({grid[scored]}) are on different grids")


def test_climatology_disjoint_periods_nonzero_matches_oracle(scored_world):
    store, stats = scored_world
    w = area_weights(GRID)
    rep = E.climatology_baseline(store, store, stats, w, store.varset,
                                 datetime(2006, 1, 1), 1200,
                                 datetime(2007, 6, 1), 800)
    assert 0.0 < rep.aggregate < 1.0
    # oracle: direct computation for one variable
    v = store.varset.evaluation_subset[0]
    i0 = store.time_index(datetime(2006, 1, 1))
    j0 = store.time_index(datetime(2007, 6, 1))
    mu_t = store.read_range(v, i0, i0 + 1200).astype(np.float64).mean(axis=0)
    mu_e = store.read_range(v, j0, j0 + 800).astype(np.float64).mean(axis=0)
    d = (mu_t - mu_e) / stats.values[v][1]
    expect = float(np.sqrt((d ** 2 * w.weights[:, None]).mean()))
    assert rep.per_variable[v]["norm"] == pytest.approx(expect, rel=1e-6)


def test_climatology_grows_with_injected_trend(scored_world, tmp_path):
    store, stats = scored_world
    w = area_weights(GRID)
    names = store.prognostic
    t0 = datetime(2007, 1, 1)
    n = 600
    mu, sd = E._reference_stats(store, names, t0, n)
    scores = []
    for trend in (0.5, 1.0, 2.0):
        rs = E.RolloutStats(variables=names, grid=GRID, count=n,
                            mean=mu + trend, m2=(sd ** 2) * n, finite=True)
        scores.append(E.stability_score(rs, store, stats, w, store.varset,
                                        t0, n).aggregate)
    assert scores[0] < scores[1] < scores[2]


def test_persistence_not_better_than_climatology(scored_world):
    # a single frozen state cannot beat the period mean on a stationary climate
    store, stats = scored_world
    w = area_weights(GRID)
    names = store.prognostic
    t0 = datetime(2007, 1, 1)
    n = 1000
    i0 = store.time_index(t0)
    x0 = np.stack([store.read_steps(v, [i0])[0] for v in names]).astype(np.float64)
    rs = E.RolloutStats(variables=names, grid=GRID, count=n, mean=x0,
                        m2=np.zeros_like(x0), finite=True)
    pers = E.stability_score(rs, store, stats, w, store.varset, t0, n)
    clim = E.climatology_baseline(store, store, stats, w, store.varset,
                                  datetime(2006, 1, 1), 1400, t0, n)
    assert pers.aggregate >= clim.aggregate


# ------------------------------------------------------------- window memo

@pytest.fixture(scope="module")
def memo_world(tmp_path_factory):
    """Two years of 7 variables, two of them outside the evaluation subset."""
    from rsl.data import SyntheticConfig, generate_synthetic_climate
    out = tmp_path_factory.mktemp("memo") / "store"
    store = generate_synthetic_climate(
        SyntheticConfig(seed=5, years=2, grid=GRID,
                        variable_set=variable_set("custom", 7)), out)
    stats = compute_normalization(store, datetime(2006, 1, 1),
                                  datetime(2006, 12, 31))
    return out, stats


MEMO_TRAIN = (datetime(2006, 1, 1), 1000)
MEMO_EVAL = (datetime(2006, 9, 1), 900)


def memo_reports(store, stats, scored):
    """What `rsl rollout` scores for one run, as JSON text."""
    w = area_weights(GRID)
    out = []
    for mode in ("mean", "std"):
        out.append(E.stability_score(scored, store, stats, w, store.varset,
                                     *MEMO_EVAL, mode=mode).to_json())
        out.append(E.climatology_baseline(store, store, stats, w, store.varset,
                                          *MEMO_TRAIN, *MEMO_EVAL,
                                          mode=mode).to_json())
    return json.dumps(out, sort_keys=True)


def memo_scored(store):
    """A fixed 'rollout' over every prognostic variable of the store."""
    rng = np.random.default_rng(8)
    shape = (len(store.prognostic),) + GRID.shape
    return E.RolloutStats(variables=store.prognostic, grid=GRID,
                          count=MEMO_EVAL[1], mean=280.0 + rng.standard_normal(shape),
                          m2=(1.0 + rng.random(shape)) * MEMO_EVAL[1])


def uncached_moments(store, var, t0, n):
    """The reference window statistics written out, without the store memo."""
    i0 = store.time_index(t0)
    s = np.zeros(GRID.shape)
    s2 = np.zeros(GRID.shape)
    for c0 in range(i0, i0 + n, 4096):
        chunk = store.read_range(var, c0, min(c0 + 4096, i0 + n)).astype(np.float64)
        s += chunk.sum(axis=0)
        s2 += (chunk * chunk).sum(axis=0)
    mu = s / n
    return mu, np.sqrt(np.maximum(s2 / n - mu * mu, 0.0))


def test_scoring_reduces_each_window_once_over_the_subset(memo_world, monkeypatch):
    root, stats = memo_world
    store = DatasetStore.open(root)
    reads = []
    original = DatasetStore.read_range
    monkeypatch.setattr(DatasetStore, "read_range",
                        lambda self, var, i0, i1: reads.append(var) or original(self, var, i0, i1))
    memo_reports(store, stats, memo_scored(store))
    subset = store.varset.evaluation_subset
    assert len(subset) < len(store.prognostic)
    # one chunk per window: the evaluation window and the training window
    assert sorted(reads) == sorted(2 * subset)
    memo_reports(store, stats, memo_scored(store))
    assert len(reads) == 2 * len(subset)


def test_scoring_ignores_variables_outside_the_subset(memo_world, tmp_path):
    import shutil
    root, stats = memo_world
    cut = tmp_path / "cut"
    shutil.copytree(root, cut)
    store = DatasetStore.open(root)
    dropped = [v for v in store.prognostic if v not in store.varset.evaluation_subset]
    assert dropped
    for v in dropped:
        shutil.rmtree(cut / v)
    assert (memo_reports(DatasetStore.open(cut), stats, memo_scored(store))
            == memo_reports(store, stats, memo_scored(store)))


def test_write_year_drops_memoised_moments(memo_world, tmp_path):
    import shutil
    root, stats = memo_world
    copy = tmp_path / "copy"
    shutil.copytree(root, copy)
    store = DatasetStore.open(copy)
    before = memo_reports(store, stats, memo_scored(store))
    var = store.varset.evaluation_subset[0]
    shifted = store.read_range(var, 0, 1460) + np.float32(3.0)
    store.write_year(var, 2006, shifted)
    after = memo_reports(store, stats, memo_scored(store))
    assert after != before
    assert after == memo_reports(DatasetStore.open(copy), stats, memo_scored(store))
    mu, _ = store.window_moments(var, store.time_index(MEMO_TRAIN[0]), MEMO_TRAIN[1])
    assert np.array_equal(mu, uncached_moments(store, var, *MEMO_TRAIN)[0])


def test_mutating_returned_statistics_leaves_later_scores(memo_world):
    root, stats = memo_world
    store = DatasetStore.open(root)
    first = memo_reports(store, stats, memo_scored(store))
    subset = store.varset.evaluation_subset
    mu, sd = E._reference_stats(store, subset, *MEMO_EVAL)
    # a caller that treats the reference as a rollout and keeps streaming
    rs = E.RolloutStats(variables=subset, grid=GRID, count=MEMO_EVAL[1],
                        mean=mu, m2=sd ** 2 * MEMO_EVAL[1])
    rs.update(np.full(mu.shape, 1e3), area_weights(GRID))
    sd[:] = np.nan
    for v in subset:
        for arr in store.window_moments(v, store.time_index(MEMO_TRAIN[0]), MEMO_TRAIN[1]):
            arr += 7.0
    assert memo_reports(store, stats, memo_scored(store)) == first


def test_warm_store_scores_match_fresh_and_uncached(memo_world):
    root, stats = memo_world
    warm = DatasetStore.open(root)
    scored = memo_scored(warm)
    first = memo_reports(warm, stats, scored)
    assert memo_reports(warm, stats, scored) == first
    assert memo_reports(DatasetStore.open(root), stats, scored) == first
    # inline oracle: the same statistics and RMSE, without the memo
    raw = DatasetStore.open(root)
    w = area_weights(GRID)
    subset = raw.varset.evaluation_subset
    n = MEMO_TRAIN[1]
    clim_mu, clim_sd = zip(*(uncached_moments(raw, v, *MEMO_TRAIN) for v in subset))
    expected = []
    for k in range(2):                      # mode "mean", then "std"
        ref = [uncached_moments(raw, v, *MEMO_EVAL)[k] for v in subset]
        run = (scored.mean, scored.std)[k]
        clim = clim_mu if k == 0 else [np.sqrt(np.maximum(sd ** 2 * n / n, 0.0))
                                       for sd in clim_sd]
        for pred in ([run[scored.variables.index(v)] for v in subset], clim):
            per_var = {v: {"norm": E._area_rmse((p - r) / stats.values[v][1], w),
                           "phys": E._area_rmse(p - r, w)}
                       for v, p, r in zip(subset, pred, ref)}
            expected.append((per_var, float(np.mean([x["norm"] for x in per_var.values()]))))
    assert [(r["per_variable"], r["aggregate"]) for r in json.loads(first)] == expected


# ------------------------------------------------------------- aggregation

def test_aggregate_seeds_definition():
    out = E.aggregate_seeds([0.1, 0.2, float("inf")])
    assert out["finite_count"] == 2
    assert out["mean"] == pytest.approx(0.15)
    assert out["std"] == pytest.approx(np.std([0.1, 0.2]))


def test_aggregate_all_equal_zero_std():
    out = E.aggregate_seeds([0.4, 0.4, 0.4])
    assert out["std"] == pytest.approx(0.0, abs=1e-15)
    assert out["finite_count"] == 3


def test_aggregate_no_finite_seeds():
    out = E.aggregate_seeds([float("inf"), float("nan")])
    assert out["finite_count"] == 0
    assert out["mean"] is None and out["std"] is None


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 12))
def test_aggregate_matches_direct_statistics(seed, n):
    rng = np.random.default_rng(seed)
    vals = rng.random(n).tolist()
    out = E.aggregate_seeds(vals)
    assert out["mean"] == pytest.approx(float(np.mean(vals)))
    assert out["std"] == pytest.approx(float(np.std(vals)))
    assert out["finite_count"] == n
