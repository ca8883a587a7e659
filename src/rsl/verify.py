"""Built-in invariant battery for the `verify` CLI command: fast structural
checks that the installed package computes what it promises."""

from __future__ import annotations

from datetime import datetime

import numpy as np

from . import autodiff as ad
from .data import compute_tisr, sample_index
from .grid import area_weighted_mean, area_weights, make_grid
from .models import build_model, model_forward, model_spec
from .spectral import plan_sht, sht_forward, spectral_energy, synthesize_random
from .train import PAPER_SEEDS, SweepSpec, clip_grad_norm, cosine_lr, enumerate_runs


def run_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(0)

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    grid = make_grid(32, 16)
    w = area_weights(grid)
    add("area weights mean 1", abs(w.weights.mean() - 1.0) < 1e-12,
        f"mean={w.weights.mean()}")
    add("area weights symmetric", np.allclose(w.weights, w.weights[::-1], atol=0),
        "")
    f = rng.standard_normal(grid.shape)
    g = rng.standard_normal(grid.shape)
    lin = area_weighted_mean(2.0 * f + 3.0 * g, w) - (
        2.0 * area_weighted_mean(f, w) + 3.0 * area_weighted_mean(g, w))
    add("area mean linear", abs(lin) < 1e-12, f"err={lin:g}")

    plan = plan_sht(grid)
    c, field = synthesize_random(plan, rng)
    rt = np.abs(sht_forward(field, plan) - c).max() / np.abs(c).max()
    add("sht round-trip", rt < 1e-10, f"rel={rt:.2e}")
    pars = abs(area_weighted_mean(field ** 2, w) - spectral_energy(c, plan))
    add("sht parseval", pars / area_weighted_mean(field ** 2, w) < 1e-12,
        f"rel={pars:.2e}")
    a00 = sht_forward(np.ones(grid.shape), plan)[0, 0]
    add("constant -> sqrt(4pi)", abs(a00 - np.sqrt(4 * np.pi)) < 1e-6,
        f"a00={a00:.8f}")

    x = ad.tensor(rng.standard_normal((4, 16)), requires_grad=True, dtype=np.float64)
    y = ad.irfft(ad.rfft(x), 16)
    add("fft round-trip", np.abs(y.data - x.data).max() < 1e-12, "")
    p = ad.tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
    err = ad.check_gradients(lambda: ad.sum_(ad.gelu(p)), {"p": p}, eps=1e-5)
    add("gelu gradient", err < 1e-7, f"err={err:.2e}")

    n = len(sample_index(datetime(1979, 1, 1), datetime(2007, 12, 31)))
    add("42368 training samples", n == 42368, f"n={n}")
    runs = enumerate_runs(SweepSpec(          # each run's TrainConfig checks the locks
        archs=["climax", "fcn", "sfno"], variable_sets=["vars8", "vars33"],
        m_steps=[1, 2, 4], layers=[4, 6, 8], dims=[128, 256, 512],
        seeds=list(PAPER_SEEDS)), replication=True, batch_size=64, epochs=20)
    add("1620 replication runs", len(runs) == 1620, f"n={len(runs)}")

    add("cosine endpoints",
        cosine_lr(0, 20, 4e-3) == 4e-3 and cosine_lr(19, 20, 4e-3) < 3e-5, "")
    grads = {"a": np.array([0.003, 0.004])}
    clipped, norm = clip_grad_norm(grads, 0.001)
    cn = float(np.sqrt((clipped["a"] ** 2).sum()))
    add("gradient clipping", abs(cn - 0.001) < 1e-9 and abs(norm - 0.005) < 1e-12,
        f"norm {norm} -> {cn}")

    tiny = make_grid(8, 4)
    spec = model_spec("sfno", 2, 16, 2, n_forcing=1, n_constant=1)
    st = build_model(spec, tiny, seed=597)
    out = model_forward(st, np.zeros((2, 4, 8)), np.zeros((1, 4, 8)),
                        np.zeros((1, 4, 8)))
    add("persistence at init", np.all(out == 0.0), "")

    south = compute_tisr(datetime(2001, 6, 21, 6), make_grid(32, 16))
    add("polar night", south[0].max() == 0.0, f"max={south[0].max()}")
    return checks


def main_verify() -> int:
    checks = run_checks()
    failed = 0
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1
