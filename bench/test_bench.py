"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import json
import re
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import rsl  # noqa: E402
import rsl.autodiff  # noqa: E402
import rsl.data  # noqa: E402
import rsl.evaluate  # noqa: E402
import rsl.models  # noqa: E402
import rsl.spectral  # noqa: E402
import rsl.train  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ------------------------------------------------------------ self time

def test_self_time_nested_and_sibling_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a sibling d [5, 7];
    # e [11, 12] is a second root span named like b.
    spans = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 4.0, 0, 1], ["c", 2.0, 3.0, 1, 1],
             ["d", 5.0, 7.0, 0, 1], ["b", 11.0, 12.0, -1, 2]]
    got = tracer.self_times(spans)
    assert got["a"] == (1, pytest.approx(10.0 - 3.0 - 2.0))
    assert got["b"] == (2, pytest.approx((3.0 - 1.0) + 1.0))
    assert got["c"] == (1, pytest.approx(1.0))
    assert got["d"] == (1, pytest.approx(2.0))
    total = sum(s for _, s in got.values())
    assert total == pytest.approx(10.0 + 1.0)      # self times tile the root spans


# ------------------------------------------------------------ summaries

@pytest.mark.parametrize("n, tail_p", [(1, None), (19, None), (20, 50.0),
                                       (40, 75.0), (100, 90.0), (200, 95.0),
                                       (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, tail_p):
    values = list(range(n, 0, -1))                  # order must not matter
    s = summary.summarize(values)
    assert s["n"] == n
    assert s["median"] == pytest.approx((n + 1) / 2)
    assert s["tail_p"] == tail_p
    if tail_p is not None:
        assert sum(v > s["tail"] for v in values) >= summary.MIN_BEYOND
        higher = [p for p in summary.TAIL_LADDER if p > tail_p]
        for p in higher:                            # no higher rung qualifies
            assert sum(v > np.percentile(values, p) for v in values) < summary.MIN_BEYOND


def test_geomean():
    assert summary.geomean([1.0, 4.0]) == pytest.approx(2.0)


# ------------------------------------------------------------ metric names

def test_metric_names_and_count_limits():
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in e2e + layer + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e + layer + SPEC["workloads"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in e2e + layer:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.E2E_UNITS.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.per_layer_spec()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == [BENCH.name]


# ------------------------------------------------------------ patching

def _site_values():
    out = {}
    for site in [s for sites in tracer.SITES.values() for s in sites] + [tracer.PROVIDER_SITE]:
        owner, attr = tracer.resolve(rsl, site)
        out[site] = vars(owner)[attr]
    return out


def _leftover_wrappers():
    found = []
    for mod in (rsl.autodiff, rsl.data, rsl.evaluate, rsl.models, rsl.spectral, rsl.train):
        for name, obj in vars(mod).items():
            if getattr(obj, "bench_traced", False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(obj, type):
                found += [f"{name}.{k}" for k, v in vars(obj).items()
                          if getattr(v, "bench_traced", False)]
    return found


def test_every_site_holds_the_function_of_its_home_module():
    for name, sites in tracer.SITES.items():
        home, _, attr = name.partition(".")
        owner, attr = tracer.resolve(rsl, f"{home}:{attr}")
        for site in sites:
            site_owner, site_attr = tracer.resolve(rsl, site)
            assert vars(site_owner)[site_attr] is vars(owner)[attr], site


def _tiny_forward(arch):
    spec = rsl.models.model_spec(arch, 1, 8, 2, n_forcing=1, n_constant=1,
                                 n_heads=2, n_blocks=2)
    state = rsl.models.build_model(spec, rsl.grid.make_grid(32, 16), 0)
    x = np.zeros((2, 16, 32), np.float32)
    return rsl.models.model_forward(state, x, x[:1], x[:1])


def test_tracing_records_and_restores_every_patched_function():
    before = _site_values()
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(rsl):
            for arch in ("sfno", "fcn", "climax"):
                _tiny_forward(arch)
            raise RuntimeError("an operation failing mid-trace")
    after = _site_values()
    assert all(after[k] is before[k] for k in before)
    assert _leftover_wrappers() == []
    names = {s[0] for s in tr.spans}
    for expected in ("models.build_model", "spectral.plan_sht", "models.model_forward",
                     "models.model_forward_t", "models.sfno_block", "models.afno_block",
                     "models.climax_encode", "models.climax_decode",
                     "spectral.sht_forward_t", "spectral.sht_inverse_t",
                     "autodiff.gelu", "autodiff.rfft2", "autodiff.softmax"):
        assert expected in names
    n = len(tr.spans)
    _tiny_forward("sfno")                           # untraced again: no new spans
    assert len(tr.spans) == n


def test_read_accounting(tmp_path):
    vs = rsl.data.variable_set("custom", 1)
    grid = rsl.grid.make_grid(32, 16)
    store = rsl.data.DatasetStore.create(tmp_path, grid, vs, datetime(2006, 1, 1), 1460)
    store.write_year("v00", 2006, np.zeros((1460, 16, 32), np.float32))
    tr = tracer.Tracer()
    tr.op = 1
    with tr.installed(rsl):
        store.read_range("v00", 0, 100)
        store.read_range("v00", 50, 100)
        store.read_steps("v00", [0, 120])
    step = 16 * 32 * 4
    assert tr.read_bytes == {"data.DatasetStore.read_range": 150 * step,
                             "data.DatasetStore.read_steps": 2 * step}
    assert tr.useful_frac() == pytest.approx(101 / 152)
    assert tracer.self_times(tr.spans)["data.DatasetStore.read_range"][0] == 2
