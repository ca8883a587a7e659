"""Long autoregressive rollouts with streaming statistics, blow-up detection,
and area-weighted normalized RMSE scoring of temporal means (or stds) against
reference statistics, plus the climatology baseline and per-seed aggregation.

Rollout statistics cover the states entering each step (the initial condition
and the first n_steps-1 predictions), i.e. exactly the n_steps reference
timestamps starting at the initial time. Accumulation uses 64-bit Welford
updates over the 32-bit states.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .atomic import atomic_path, write_json_atomic
from .data import STEP, DatasetStore, NormalizationStats, VariableSet
from .errors import ConfigError, ShapeError
from .grid import AreaWeights, GridSpec, area_weighted_mean
from .models import ModelState, model_forward

BLOWUP_BOUND = 1e4   # |normalized value| beyond this counts as a blow-up


def detect_blowup(x_normalized: np.ndarray) -> bool:
    """True iff any value is non-finite or exceeds the blow-up bound."""
    x = np.asarray(x_normalized)
    return bool(not np.all(np.isfinite(x)) or np.abs(x).max() > BLOWUP_BOUND)


@dataclass
class RolloutStats:
    """Streaming temporal mean/std fields (physical units) plus per-step
    area-weighted global means."""
    variables: tuple[str, ...]
    grid: GridSpec
    count: int = 0
    mean: np.ndarray | None = None            # (K, H, W) float64
    m2: np.ndarray | None = None              # (K, H, W) float64
    global_means: list = field(default_factory=list)   # per step, (K,) float64
    finite: bool = True
    first_nonfinite_step: int | None = None
    start_time: str | None = None

    def update(self, fields: np.ndarray, weights: AreaWeights) -> None:
        x = np.asarray(fields, np.float64)
        if self.mean is None:
            self.mean = np.zeros_like(x)
            self.m2 = np.zeros_like(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        self.global_means.append(area_weighted_mean(x, weights))

    @property
    def std(self) -> np.ndarray:
        """Population (divide-by-N) temporal standard deviation."""
        if self.count == 0:
            return np.zeros(0)
        return np.sqrt(np.maximum(self.m2 / self.count, 0.0))

    def save(self, out_dir) -> None:
        """Each file is written atomically: a failed or killed save leaves
        every file either as it was or complete."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, arr in (("means.bin", self.mean), ("stds.bin", self.std)):
            with atomic_path(out_dir / name) as tmp:
                np.ascontiguousarray(arr, dtype="<f8").tofile(tmp)
        with atomic_path(out_dir / "timeseries.csv") as tmp, open(tmp, "w") as f:
            f.write("step," + ",".join(self.variables) + "\n")
            for i, row in enumerate(self.global_means):
                f.write(f"{i}," + ",".join(f"{v:.9g}" for v in row) + "\n")
        meta = {"variables": list(self.variables), "steps": self.count,
                "finite": self.finite,
                "first_nonfinite_step": self.first_nonfinite_step,
                "start_time": self.start_time,
                "grid": self.grid.to_manifest(), "blowup_bound": BLOWUP_BOUND}
        write_json_atomic(out_dir / "meta.json", meta)


def rollout(state: ModelState, x0_norm: np.ndarray, forcing_provider,
            c_norm: np.ndarray, n_steps: int, stats: NormalizationStats,
            weights: AreaWeights, variables: tuple[str, ...],
            start_time: datetime | None = None) -> RolloutStats:
    """Iterate X <- X + f(X, F, C), streaming statistics in physical units.

    The trajectory itself is not stored; blow-up stops the rollout early with
    finite=False and the 1-based step index that produced the bad state.
    """
    out = RolloutStats(variables=variables, grid=state.grid,
                       start_time=start_time.isoformat() if start_time else None)
    x = np.asarray(x0_norm, dtype=np.float32)
    sds = np.array([stats.values[v][1] for v in variables], np.float32)
    mus = np.array([stats.values[v][0] for v in variables], np.float32)
    for m in range(1, n_steps + 1):
        out.update(x * sds[:, None, None] + mus[:, None, None], weights)
        f = forcing_provider(m - 1)
        x = x + model_forward(state, x, f, c_norm)
        if detect_blowup(x):
            out.finite = False
            out.first_nonfinite_step = m
            break
    return out


# ------------------------------------------------------------------ scoring

@dataclass
class ScoreReport:
    mode: str                                  # "mean" | "std"
    per_variable: dict[str, dict[str, float]]  # name -> {norm, phys}
    aggregate: float
    finite: bool
    n_steps: int
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        # JSON has no Infinity; serialize as the string "inf".
        d["aggregate"] = _json_num(self.aggregate)
        d["per_variable"] = {k: {kk: _json_num(vv) for kk, vv in v.items()}
                             for k, v in self.per_variable.items()}
        return d


def _json_num(x: float):
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _reference_stats(store: DatasetStore, variables, t0: datetime, n_steps: int,
                     what: str = "the scored window") -> tuple[np.ndarray, np.ndarray]:
    """Temporal mean/std fields (K, H, W) of the reference over the window;
    a refusal names the window as `what`."""
    i0 = store.steps(t0, t0 + (n_steps - 1) * STEP, what).start
    means, stds = zip(*(store.window_moments(v, i0, n_steps) for v in variables))
    return np.stack(means), np.stack(stds)


def _area_rmse(diff: np.ndarray, weights: AreaWeights) -> float:
    return float(np.sqrt(area_weighted_mean(diff.astype(np.float64) ** 2, weights)))


def stability_score(rollout_stats: RolloutStats, reference: DatasetStore,
                    norm: NormalizationStats, weights: AreaWeights,
                    varset: VariableSet, t0: datetime, n_steps: int,
                    mode: str = "mean") -> ScoreReport:
    """Area-weighted RMSE between predicted and reference temporal statistics,
    normalized per variable by the training std; aggregated over the
    evaluation subset. Non-finite rollouts score infinity."""
    if mode not in ("mean", "std"):
        raise ConfigError(f"unknown scoring mode {mode!r}")
    subset = varset.evaluation_subset
    per_var: dict[str, dict[str, float]] = {}
    if not rollout_stats.finite:
        for v in subset:
            per_var[v] = {"norm": float("inf"), "phys": float("inf")}
        return ScoreReport(mode=mode, per_variable=per_var,
                           aggregate=float("inf"), finite=False,
                           n_steps=rollout_stats.count,
                           meta={"reason": "non-finite rollout",
                                 "first_nonfinite_step": rollout_stats.first_nonfinite_step})
    ref_mean, ref_std = _reference_stats(reference, subset, t0, n_steps)
    pred = rollout_stats.mean if mode == "mean" else rollout_stats.std
    ref = ref_mean if mode == "mean" else ref_std
    scores = []
    for j, v in enumerate(subset):
        k = rollout_stats.variables.index(v)
        sd = norm.values[v][1]
        diff = pred[k] - ref[j]
        nrm = _area_rmse(diff / sd, weights)
        per_var[v] = {"norm": nrm, "phys": _area_rmse(diff, weights)}
        scores.append(nrm)
    return ScoreReport(mode=mode, per_variable=per_var,
                       aggregate=float(np.mean(scores)), finite=True,
                       n_steps=rollout_stats.count,
                       meta={"window_start": t0.isoformat(), "window_steps": n_steps})


def climatology_baseline(train_store: DatasetStore, eval_store: DatasetStore,
                         norm: NormalizationStats, weights: AreaWeights,
                         varset: VariableSet, train_t0: datetime, train_steps: int,
                         eval_t0: datetime, eval_steps: int,
                         mode: str = "mean") -> ScoreReport:
    """Score the training-period temporal statistics as a constant prediction."""
    if train_store.grid.shape != eval_store.grid.shape:
        raise ShapeError("train and eval stores are on different grids")
    variables = tuple(varset.evaluation_subset)
    mu, sd = _reference_stats(train_store, variables, train_t0, train_steps)
    stats = RolloutStats(variables=variables, grid=train_store.grid,
                         count=train_steps, mean=mu,
                         m2=(sd ** 2) * train_steps, finite=True)
    report = stability_score(stats, eval_store, norm, weights, varset,
                             eval_t0, eval_steps, mode=mode)
    report.meta["baseline"] = "climatology"
    report.meta["train_window"] = [train_t0.isoformat(), train_steps]
    return report


def aggregate_seeds(scores: list[float]) -> dict:
    """Mean/std over seeds with finite scores only (population std)."""
    values = [float(s) for s in scores]
    finite = [v for v in values if math.isfinite(v)]
    return {
        "finite_count": len(finite),
        "n_seeds": len(values),
        "mean": float(np.mean(finite)) if finite else None,
        "std": float(np.std(finite)) if finite else None,
    }
