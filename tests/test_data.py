import hashlib
from datetime import datetime, timedelta

import numpy as np
import pytest

from rsl import data as D
from rsl.errors import ConfigError
from rsl.grid import area_weighted_mean, area_weights, make_grid
from rsl.spectral import plan_sht, sht_forward


# ------------------------------------------------------------- variable sets

def test_vars33_preset():
    vs = D.variable_set("vars33")
    assert vs.n_prognostic == 33
    assert vs.prognostic[:3] == ("tas", "uas", "vas")
    assert "ta850" in vs.prognostic and "hus500" in vs.prognostic
    assert vs.constants == ("lsm", "orog", "lat", "lon")
    assert vs.forcings == ("tisr",)
    assert vs.evaluation_subset == ("tas", "uas", "vas", "ta850", "zg500")


def test_vars8_preset():
    vs = D.variable_set("vars8")
    assert vs.n_prognostic == 8
    assert set(vs.evaluation_subset) <= set(vs.prognostic)


def test_custom_set_keeps_eval_names():
    vs = D.variable_set("custom", 8)
    assert vs.n_prognostic == 8
    assert set(("tas", "uas", "vas", "ta850", "zg500")) <= set(vs.prognostic)
    tiny = D.variable_set("custom", 3)
    assert tiny.evaluation_subset == tiny.prognostic


def test_eval_subset_must_be_prognostic():
    with pytest.raises(ConfigError):
        D.VariableSet("bad", ("a", "b"), evaluation_subset=("tas",))


# ------------------------------------------------------------- sample index

def test_paper_training_sample_count():
    idx = D.sample_index(datetime(1979, 1, 1), datetime(2007, 12, 31))
    assert len(idx) == 42368


def test_single_day_hours():
    idx = D.sample_index(datetime(2000, 5, 5), datetime(2000, 5, 5))
    assert [t.hour for t in idx] == [0, 6, 12, 18]


def test_horizon_exclusion():
    # last 4 candidates lack a 4-step target when data ends at 18:00
    end = datetime(2007, 12, 31)
    idx = D.sample_index(datetime(2007, 12, 1), end, m_steps=4,
                         data_end=end + timedelta(hours=18))
    assert len(idx) == 31 * 4 - 4
    assert idx[-1] == datetime(2007, 12, 30, 18)


# ------------------------------------------------------------- solar forcing

def test_tisr_polar_night():
    grid = make_grid(32, 16)
    june = D.compute_tisr(datetime(2001, 6, 21, 6), grid)
    assert june[0].max() == 0.0          # southernmost band dark at solstice
    dec = D.compute_tisr(datetime(2001, 12, 21, 6), grid)
    assert dec[-1].max() == 0.0


def test_tisr_annual_mean_quarter_s0():
    grid = make_grid(16, 8)
    w = area_weights(grid)
    vals = []
    t = datetime(2001, 1, 1, 0)
    while t < datetime(2002, 1, 1):
        vals.append(area_weighted_mean(D.compute_tisr(t, grid), w))
        t += timedelta(hours=18)         # 18 h stride still covers all phases
    mean = float(np.mean(vals))
    assert mean == pytest.approx(D.SOLAR_CONSTANT / 4.0, rel=0.02)


def test_tisr_equator_noon_peak():
    # window 09-15 UTC straddles local solar noon at Greenwich: the maximum
    # of the equator row sits near longitude 0 and close to the daily peak
    grid = make_grid(32, 16)
    f = D.compute_tisr(datetime(2001, 3, 21, 15), grid)
    eq = f[grid.n_lat // 2]
    peak_lon = grid.longitudes[int(np.argmax(eq))]
    assert min(peak_lon, 360.0 - peak_lon) <= 45.0
    # 6 h window mean of cos(hour angle) over +-45 deg is 2*sqrt(2)/pi = 0.9003
    assert eq.max() > 0.85 * D.SOLAR_CONSTANT


def test_tisr_hemispheric_symmetry():
    # daily means mirror under (lat, day) -> (-lat, day + half year)
    grid = make_grid(16, 8)

    def daily_zonal(t0):
        acc = np.zeros(grid.shape)
        for h in (6, 12, 18, 24):
            acc += D.compute_tisr(t0 + timedelta(hours=h), grid)
        return (acc / 4.0).mean(axis=1)

    worst = 0.0
    for doy in (1, 60, 120, 240, 300):
        t = datetime(2001, 1, 1) + timedelta(days=doy - 1)
        a = daily_zonal(t)
        b = daily_zonal(t + timedelta(days=182, hours=15))[::-1]
        worst = max(worst, np.abs(a - b).max() / max(a.max(), b.max()))
    assert worst < 0.02


def test_tisr_periodic_in_longitude():
    grid = make_grid(32, 16)
    f = D.compute_tisr(datetime(2001, 7, 1, 6), grid)
    assert f.shape == grid.shape and np.all(np.isfinite(f))


# ------------------------------------------------------------- store/stats

def test_store_roundtrip_bit_identical(small_store, tmp_path):
    cfg = D.SyntheticConfig(seed=77, years=1, grid=small_store.grid)
    a = D.generate_synthetic_climate(cfg, tmp_path / "a")
    b = D.generate_synthetic_climate(cfg, tmp_path / "b")
    for var in list(a.prognostic) + ["tisr"]:
        assert np.array_equal(a.read_range(var, 0, a.n_steps),
                              b.read_range(var, 0, b.n_steps))
    assert np.array_equal(a.read_constants(), b.read_constants())
    reopened = D.DatasetStore.open(tmp_path / "a")
    assert np.array_equal(reopened.read_range("tas", 10, 20),
                          a.read_range("tas", 10, 20))


def year_file_oracle(store, var):
    """The whole time axis of `var`, read file by file without the store."""
    return np.concatenate([
        np.fromfile(store.root / var / f"{year}.bin", dtype="<f4")
        for year, _, _ in store._years]).reshape((store.n_steps,) + store.grid.shape)


def test_reads_match_the_year_files(small_store):
    store = D.DatasetStore.open(small_store.root)
    assert len(store._years) >= 3
    full = year_file_oracle(store, "tas")
    first_2007 = store.time_index(datetime(2007, 1, 1))
    first_2008 = store.time_index(datetime(2008, 1, 1))
    # unsorted, duplicated, both year boundaries, and runs that cross them
    idx = np.array([first_2008 + 1, first_2007 - 1, first_2007, first_2007 + 1,
                    first_2007, 0, store.n_steps - 1, first_2008 - 1, first_2008,
                    first_2007 - 1, 7, 7])
    for steps in (idx, idx.reshape(3, 4), np.unique(idx), idx[:1]):
        got = store.read_steps("tas", steps)
        assert got.dtype == np.float32
        assert np.array_equal(got, full[steps])
    for i0, i1 in ((first_2007 - 50, first_2008 + 50), (0, store.n_steps), (9, 9)):
        assert np.array_equal(store.read_range("tas", i0, i1), full[i0:i1])


def test_store_keeps_nothing_it_reads(small_store):
    import tracemalloc
    store = D.DatasetStore.open(small_store.root)
    assert len(store._years) >= 3
    store.read_range("uas", 0, 10)      # first call on another variable
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = store.read_range("tas", 0, 10)
        nbytes = out.nbytes
        del out
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2 * nbytes
    assert after - before < 1024        # less than half of one step


def test_read_range_past_the_end_rejected(small_store):
    n = small_store.n_steps
    with pytest.raises(ConfigError, match=rf"tas: steps \[{n - 5}, {n + 5}\)"):
        small_store.read_range("tas", n - 5, n + 5)
    with pytest.raises(ConfigError, match=r"tas: steps \[20, 10\)"):
        small_store.read_range("tas", 20, 10)


def test_read_steps_negative_rejected(small_store):
    with pytest.raises(ConfigError, match=r"uas: steps -1\.\.3 outside"):
        small_store.read_steps("uas", [3, -1])


def test_window_moments_past_the_end_rejected(small_store):
    n = small_store.n_steps
    for i0, count, match in ((n - 10, 20, rf"vas: steps \[{n - 10}, {n + 10}\)"),
                             (100, 0, r"vas: empty window of 0 steps at step 100"),
                             (100, -5, r"vas: empty window of -5 steps at step 100")):
        with pytest.raises(ConfigError, match=match):
            small_store.window_moments("vas", i0, count)


def test_read_json_blames_the_file_only_for_its_own_faults(tmp_path, monkeypatch):
    import json
    import types
    from rsl import atomic
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1}')
    with pytest.raises(ConfigError, match="doc.json: missing key 'b'"):
        atomic.read_json(path, lambda doc: doc["b"])
    path.write_text('{"a": ')
    with pytest.raises(ConfigError, match="doc.json"):
        atomic.read_json(path)
    # a fault of the reader itself is not the file's
    monkeypatch.setattr(atomic, "json", types.SimpleNamespace(dump=json.dump))
    with pytest.raises(AttributeError, match="load"):
        atomic.read_json(path)


def test_stats_json_survives_a_failed_write(small_store, tmp_path, monkeypatch):
    import json
    import types
    from rsl import atomic
    root = tmp_path / "store"
    store = D.DatasetStore.create(root, small_store.grid, small_store.varset,
                                  small_store.start, 8)
    old = D.NormalizationStats({"tas": (280.0, 5.0)}, ("2006-01-01", "2006-01-02"))
    new = D.NormalizationStats({"tas": (281.0, 6.0)}, ("2006-01-01", "2006-01-02"))
    store.save_stats(old)
    before = (root / "stats.json").read_bytes()
    names = sorted(p.name for p in root.iterdir())

    def dump_half_then_fail(doc, f, **kw):
        f.write(json.dumps(doc, **kw)[:20])
        raise OSError("disk full")

    monkeypatch.setattr(atomic, "json", types.SimpleNamespace(dump=dump_half_then_fail))
    with pytest.raises(OSError, match="disk full"):
        store.save_stats(new)
    assert (root / "stats.json").read_bytes() == before
    assert sorted(p.name for p in root.iterdir()) == names
    (root / "stats.json").unlink()
    with pytest.raises(OSError, match="disk full"):
        store.save_stats(new)
    assert sorted(p.name for p in root.iterdir()) == ["manifest.json"]


def test_manifest_format(small_store):
    m = small_store.manifest
    assert m["format_version"] == "RSL-DS-1"
    assert m["time"]["step_hours"] == 6
    assert m["time"]["calendar"] == "proleptic_gregorian"
    assert m["grid"]["kind"] == "equiangular-cell-center"


def test_manifest_of_another_time_axis_refused(small_store, tmp_path):
    import json
    root = tmp_path / "axis"
    root.mkdir()
    for key, value in (("step_hours", 3), ("calendar", "noleap")):
        doc = dict(small_store.manifest, time=dict(small_store.manifest["time"], **{key: value}))
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"axis/manifest.json: time.{key} is {value!r}"):
            D.DatasetStore.open(root)


def test_non_finite_values_refused_where_read(tmp_path):
    """Every reader of the store names the store, the variable and the
    window that holds a NaN or an infinity: model inputs, reference windows,
    normalization and the constants."""
    import re
    grid = make_grid(8, 4)
    vs = D.variable_set("custom", 1)
    v = vs.prognostic[0]
    store = D.DatasetStore.create(tmp_path / "s", grid, vs, datetime(2006, 1, 1), 8)
    arr = np.arange(8 * 32, dtype=np.float32).reshape((8,) + grid.shape)
    store.write_year("tisr", 2006, arr)
    store.write_constants({name: np.ones(grid.shape) for name in vs.constants})
    stats = D.NormalizationStats({v: (0.0, 1.0), "tisr": (0.0, 1.0)})

    def refused(window):
        return pytest.raises(ConfigError, match=re.escape(
            f"the store {store.root} holds non-finite values of {v} in {window}"))

    for bad in (np.nan, np.inf, -np.inf):
        arr[5, 2, 3] = bad
        store.write_year(v, 2006, arr)
        with refused("2006-01-01 06:00..2006-01-02 06:00"):
            D.normalized_fields(store, stats, [v], [[1, 5], [3, 4]])
        with refused("2006-01-01 12:00..2006-01-02 18:00"):
            store.window_moments(v, 2, 6)
        with refused("2006-01-01 00:00..2006-01-02 18:00"):
            D.compute_normalization(store, datetime(2006, 1, 1), datetime(2006, 1, 2))
        D.normalized_fields(store, stats, [v], [0, 4])      # windows without it read
        store.window_moments(v, 0, 5)
        D.normalized_constants(store)
    lsm = np.ones(grid.shape)
    lsm[1, 1] = np.nan
    store.write_constants(dict({name: np.ones(grid.shape) for name in vs.constants}, lsm=lsm))
    with pytest.raises(ConfigError, match="non-finite values of the constant lsm in constants.bin"):
        D.normalized_constants(store)


def test_time_index_roundtrip(small_store):
    # 428 days of 4 steps from 2006-01-01, then two more to 12:00
    assert small_store.time_index(datetime(2007, 3, 5, 12)) == 1714
    with pytest.raises(ConfigError):
        small_store.time_index(datetime(2005, 1, 1))
    with pytest.raises(ConfigError):
        small_store.time_index(datetime(2006, 1, 1, 3))
    end = datetime(2008, 12, 31, 18)
    assert small_store.steps(datetime(2007, 3, 5, 12), end, "w") == range(1714, 4384)
    # off the axis, before or past the store, or reversed: one refusal
    for first, last in ((datetime(2006, 1, 1, 3), end), (datetime(2005, 12, 31), end),
                        (datetime(2006, 1, 1), end + D.STEP),
                        (datetime(2007, 1, 2), datetime(2007, 1, 1))):
        with pytest.raises(ConfigError) as exc:
            small_store.steps(first, last, "the window w")
        assert str(exc.value) == (
            f"the window w needs {first:%Y-%m-%d %H:%M}..{last:%Y-%m-%d %H:%M}, but the "
            f"store {small_store.root} spans 2006-01-01 00:00..2008-12-31 18:00 in steps "
            "of 6 h")


def test_normalization_against_two_pass_oracle(small_store):
    stats = D.compute_normalization(small_store, datetime(2006, 1, 1),
                                    datetime(2006, 12, 31))
    i1 = small_store.time_index(datetime(2006, 12, 31, 18)) + 1
    raw = small_store.read_range("tas", 0, i1).astype(np.float64)
    assert stats.values["tas"][0] == pytest.approx(raw.mean(), rel=1e-5)
    assert stats.values["tas"][1] == pytest.approx(raw.std(), rel=1e-5)


def test_normalization_empty_range_rejected(small_store):
    with pytest.raises(ConfigError):
        D.compute_normalization(small_store, datetime(2007, 1, 1),
                                datetime(2006, 1, 1))


def test_alternating_values_normalize_to_unit(tmp_path, small_grid):
    vs = D.variable_set("custom", 1)
    store = D.DatasetStore.create(tmp_path / "alt", small_grid, vs,
                                  datetime(2006, 1, 1), 8)
    arr = np.empty((8,) + small_grid.shape, np.float32)
    arr[0::2] = 1.0
    arr[1::2] = 3.0
    store.write_year(vs.prognostic[0], 2006, arr)
    store.write_year("tisr", 2006, arr)
    stats = D.compute_normalization(store, datetime(2006, 1, 1),
                                    datetime(2006, 1, 2))
    mu, sd = stats.values[vs.prognostic[0]]
    assert (mu, sd) == (2.0, 1.0)
    z = stats.normalize(vs.prognostic[0], arr)
    assert set(np.unique(z)) == {-1.0, 1.0}


def test_constant_variable_floors_std(tmp_path, small_grid):
    vs = D.variable_set("custom", 1)
    store = D.DatasetStore.create(tmp_path / "c", small_grid, vs,
                                  datetime(2006, 1, 1), 8)
    flat = np.full((8,) + small_grid.shape, 7.0, np.float32)
    store.write_year(vs.prognostic[0], 2006, flat)
    store.write_year("tisr", 2006, flat)
    with pytest.warns(UserWarning, match="floored"):
        stats = D.compute_normalization(store, datetime(2006, 1, 1),
                                        datetime(2006, 1, 2))
    assert stats.values[vs.prognostic[0]][1] == D.STD_FLOOR


def test_normalized_training_data_is_zscored(small_store):
    start, end = datetime(2006, 1, 1), datetime(2007, 12, 31)
    stats = D.compute_normalization(small_store, start, end)
    i1 = small_store.time_index(datetime(2007, 12, 31, 18)) + 1
    z = stats.normalize("tas", small_store.read_range("tas", 0, i1).astype(np.float64))
    assert abs(z.mean()) < 1e-3
    assert abs(z.std() - 1.0) < 1e-3


# ------------------------------------------------------------- generator

def test_generator_band_limited(small_store, small_grid):
    plan = plan_sht(small_grid)
    tas = small_store.read_steps("tas", [123])[0]
    c = sht_forward(tas, plan)
    energy = np.abs(c) ** 2
    band = small_store.manifest["generator"]["band_limit"]
    assert energy[band + 1 :, :].sum() / energy.sum() < 1e-6


def test_generator_yearly_drift_small(small_store):
    w = area_weights(small_store.grid)
    yearly = []
    for year, i0, count in small_store._years:
        chunk = small_store.read_range("tas", i0, i0 + count)
        yearly.append(float(np.mean(
            [area_weighted_mean(f, w) for f in chunk[:: max(count // 200, 1)]])))
    intra = small_store.read_range("tas", 0, 1460).astype(np.float64).std()
    assert np.ptp(yearly) < 0.05 * intra


def test_load_batch_matches_slicing_oracle(small_store, monkeypatch):
    stats = D.compute_normalization(small_store, datetime(2006, 1, 1),
                                    datetime(2007, 12, 31))
    starts = D.sample_index(datetime(2006, 1, 1), datetime(2007, 12, 31), 4,
                            small_store.end)
    order = np.random.default_rng(3).permutation(len(starts))[:32]
    first = [small_store.time_index(starts[i]) for i in order]   # a shuffled batch of 32
    read = small_store.read_steps
    for m_steps in (1, 2, 4):
        calls = []
        monkeypatch.setattr(small_store, "read_steps",
                            lambda v, steps: calls.append(v) or read(v, steps))
        x_seq, f_seq = D.load_batch(small_store, stats, first, m_steps)
        monkeypatch.undo()
        # each variable is read once per batch, whatever M is
        assert sorted(calls) == sorted(small_store.prognostic + small_store.forcings)
        assert len(x_seq) == m_steps + 1 and len(f_seq) == m_steps
        # oracle: read each sample's step alone, then normalize
        for seq, names in ((x_seq, small_store.prognostic), (f_seq, small_store.forcings)):
            for m, arr in enumerate(seq):
                assert arr.dtype == np.float32 and arr.flags.c_contiguous
                steps = [i + m for i in first]
                oracle = np.array([[stats.normalize(v, read(v, [i])[0]) for v in names]
                                   for i in steps], np.float32)
                assert arr.tobytes() == oracle.tobytes()


def test_load_batch_m1_lengths(small_store):
    stats = D.compute_normalization(small_store, datetime(2006, 1, 1),
                                    datetime(2006, 12, 31))
    x_seq, f_seq = D.load_batch(small_store, stats,
                                [small_store.time_index(datetime(2006, 2, 1))], 1)
    assert len(x_seq) == 2 and len(f_seq) == 1


def test_constants_normalization(small_store):
    c = D.normalized_constants(small_store)
    assert c.shape == (4,) + small_store.grid.shape
    names = small_store.constants
    lat = c[names.index("lat")]
    lon = c[names.index("lon")]
    assert lat.min() >= -1.0 and lat.max() <= 1.0
    assert lon.min() >= -1.0 and lon.max() <= 1.0
    lsm = c[names.index("lsm")]
    assert abs(lsm.mean()) < 1e-5 and abs(lsm.std() - 1.0) < 1e-3


def test_out_of_range_batch_rejected(small_store):
    stats = D.compute_normalization(small_store, datetime(2006, 1, 1),
                                    datetime(2006, 12, 31))
    with pytest.raises(ConfigError):
        D.load_batch(small_store, stats,
                     [small_store.time_index(datetime(2008, 12, 31, 18))], 2)


# Digests of every file of three small worlds. They pin the generator's output
# byte for byte, so a rewrite of the generator must reproduce these files
# exactly. They were taken with numpy 2.4 (PCG64 normals, pocketfft) and
# OpenBLAS 0.3.31 on x86-64; another numpy or BLAS build may legitimately
# change the low bits, and then the digests must be retaken from the old code.
GOLDEN_WORLDS = {
    # seed 11, 2007-2008 on 16x8: a year boundary, the 2008 leap day, and a
    # band limit (10) above lmax (7)
    "w1": D.SyntheticConfig(seed=11, years=2, start_year=2007, grid=make_grid(16, 8),
                            variable_set=D.variable_set("vars8")),
    # one prognostic variable: the coupling matrix is expm of the zero 1x1, [[1.]]
    "w2": D.SyntheticConfig(seed=11, years=1, start_year=2008, grid=make_grid(32, 16),
                            variable_set=D.variable_set("custom", 1)),
    # 8x16 from 2009: mmax (4) is below the band limit (10), so it clips the
    # orders of degrees 5..10, and the first TISR window starts at 18 UTC on
    # day 366 of the leap year 2008
    "w3": D.SyntheticConfig(seed=11, years=2, start_year=2009, grid=make_grid(8, 16),
                            variable_set=D.variable_set("custom", 2)),
}
GOLDEN_SHA256 = {
    "w1": {
        "constants.bin":
            "d40315f6e997f0779ace176a9e5311a6186521f48401f896557d353d417f83e5",
        "manifest.json":
            "d13bb376a0aeae61122a1523ce62a380dc67a9987626ccd6bbacb39ec9b1ddde",
        "ta850/2007.bin":
            "7dc1dbf562a6415d7f67cd656a28559d19c2a25854c5ea753a87a16e17566d7a",
        "ta850/2008.bin":
            "0e7b5766ab30be7b2c43d3368d5b75de9940b73ddd4362ed084de2f898692d9d",
        "tas/2007.bin":
            "922ce11b378c3843a49d1c54f09b9274a571f9035f3a6937ec2538e9fa4f229e",
        "tas/2008.bin":
            "ca9bd97b848e2c10497ce9cefaea4a6993472744c1762e5a3566c48c08b4f59b",
        "tisr/2007.bin":
            "b41599f6923069913cc788a84100e5ec343f947f038b32f743fe7fcc3503fbf7",
        "tisr/2008.bin":
            "2eeb0a68939e7470dae2d81598678a74993dfdabc4e566c96cd90530ec831a63",
        "uas/2007.bin":
            "2b836b1abca1b5fe77ac34001e9cee8692f9e61439b39fd59b20feb75c38e2f7",
        "uas/2008.bin":
            "4a29313cc7a1878de5092f00a06a474393634509c0d7f57b3f98572a12d09c93",
        "vas/2007.bin":
            "f89d1f9113d5f632b1e6331dbff4f7b3ed0e42523facab0ddd2b325b17d57b8f",
        "vas/2008.bin":
            "0f527f78a0ace3cdc66fb7721f3b73e1c1551241380baf00d9510b43346bfca6",
        "zg1000/2007.bin":
            "31010f16be14df1d5f3de5728f45de9156bba5e1729e58ee457113c73843940b",
        "zg1000/2008.bin":
            "7b03ece38640c134c794d3b37805316c9d4fefc4c9ef3c55f548b1e61f46ddf6",
        "zg300/2007.bin":
            "bc9d82b6582619645e6ab86e029301d84d9741934048ed09010ca6eb6bc54cc2",
        "zg300/2008.bin":
            "63b4ef7e6d120efd781b0eebbf94b9eb54ed90b69de3f88df7de49ed53a43382",
        "zg500/2007.bin":
            "af5dcd6e849f6933c8e0a7ce4663a16d2c9adb24785d743ac3feab8975360c84",
        "zg500/2008.bin":
            "99d64dae4af831044bf8ea780704348a8e5434aa22b2147d7089611bd5895679",
        "zg700/2007.bin":
            "6eb3851690ba031e410597761f3497b0ca186768f4a9fb1a2b6c59ec394a05e1",
        "zg700/2008.bin":
            "b5fedab5b2ea25d4eb0347fe61b7b2088654818184443927f3ec4117b5babe7b",
    },
    "w2": {
        "constants.bin":
            "75f9a5a9f5386c41889f0824cb8d94215506bc5394a23ff0aedf3f4f8f7d07f6",
        "manifest.json":
            "51e30b368445374238b56a0f65ddbe3b7721ea8234cbc22194fecad9a69ff114",
        "tisr/2008.bin":
            "e07e5d349caff34928cbb67457d0594d2c43c8bc8b3e6b08385bb7f09bdeaa2c",
        "v00/2008.bin":
            "2fc0750ffca82b2e2a5eeb2f0d11b0f7a8d6606875ae7e0d367da7a7f1b530d6",
    },
    "w3": {
        "constants.bin":
            "03e9974910976057a1672572dace4dedf25d8ff30db6ee845306d12018c3de10",
        "manifest.json":
            "b516454b95e6daae783deb8fb8273cd806a9fba1c63a1a09cba4d8ae69da07d2",
        "tisr/2009.bin":
            "2e16c80032641abea6edfa3bbba493bd2b407f9f04e05b704190705ad2ddc5b0",
        "tisr/2010.bin":
            "36fbfd49cd7c2d9b714840983fbb9fe127c0fbeadeb7fc0d04a48c8098222e1e",
        "v00/2009.bin":
            "846b5f6bd5866a03ed7575e231194f0821acf52c66323da6fb24a056e95b8af9",
        "v00/2010.bin":
            "4ae8d9da1363c22ffd387c296af6ab919795a2bf64f3d551d6acad0863f33c5a",
        "v01/2009.bin":
            "c33996ac72fca8ccadb1b84966d95183f06f22cb8e5ec6ee1e29a73600cdf6d2",
        "v01/2010.bin":
            "cc062eb4f599bb87c8785bda5d84bcb77f16ee5708e1f07a3a65cad2f8f0510b",
    },
}


@pytest.mark.parametrize("world", sorted(GOLDEN_WORLDS))
def test_generator_bytes_are_pinned(world, tmp_path):
    out = tmp_path / world
    D.generate_synthetic_climate(GOLDEN_WORLDS[world], out)
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*")) if p.is_file()}
    assert got == GOLDEN_SHA256[world]
