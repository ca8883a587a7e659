"""Report emitters: per-configuration aggregation tables, per-run global-mean
timeseries, temporal-mean difference maps, and an optional dependency-free SVG
scatter of the aggregated scores.

summary.csv schema (stable, golden-tested):
    config,arch,variable_set,kp,m_steps,layers,dim,score_mean,score_std,
    finite_count,n_seeds,per_seed
one row per configuration (all grid axes except the seed), sorted by the
tuple (arch, variable_set, kp, m_steps, layers, dim). per_seed holds
"seed=score" pairs joined by "|", with inf for non-finite rollouts.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .atomic import read_json
from .data import DatasetStore, parse_timestamp, read_array
from .errors import ConfigError
from .evaluate import _reference_stats, aggregate_seeds

SUMMARY_COLUMNS = ("config", "arch", "variable_set", "kp", "m_steps", "layers",
                   "dim", "score_mean", "score_std", "finite_count", "n_seeds",
                   "per_seed")
Y_CUT = 0.5      # the SVG's score axis ends at or below this


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.9g}"
    return str(x)


def _group_key(cfg: dict) -> tuple:
    m = cfg["model"]
    return (m["arch"], cfg["variable_set"], m["n_prognostic"], cfg["m_steps"],
            m["n_layers"], m["hidden_dim"])


def collect_summary(sweep_root) -> list[dict]:
    """One row per configuration, aggregating score.json over seeds."""
    sweep_root = Path(sweep_root)
    manifest_path = sweep_root / "sweep.json"
    if not manifest_path.exists():
        raise ConfigError(f"no sweep.json under {sweep_root}")
    runs = read_json(manifest_path, lambda doc: [
        (e["id"], e.get("status"), _group_key(e["config"]), e["config"]["seed"])
        for e in doc.get("runs") or ()])
    if not runs:
        raise ConfigError("sweep manifest lists no runs")
    groups: dict[tuple, list] = {}
    for rid, status, key, seed in runs:
        score_path = sweep_root / rid / "score.json"
        if score_path.exists():
            score = read_json(score_path,
                              lambda sj: float(sj["scores"]["mean"]["aggregate"]))
        elif status == "failed":
            score = float("inf")
        else:
            continue   # not rolled out yet; leave out of the table
        groups.setdefault(key, []).append((seed, score, rid))
    rows = []
    for key in sorted(groups):
        items = sorted(groups[key])
        agg = aggregate_seeds([s for _, s, _ in items])
        arch, vs, kp, m, layers, dim = key
        rows.append({
            "config": f"{arch}-{vs}-m{m}-l{layers}-d{dim}",
            "arch": arch, "variable_set": vs, "kp": kp, "m_steps": m,
            "layers": layers, "dim": dim,
            "score_mean": agg["mean"], "score_std": agg["std"],
            "finite_count": agg["finite_count"], "n_seeds": agg["n_seeds"],
            # (seed, score) at the precision summary.csv prints, so the SVG
            # plots the values the table shows
            "per_seed": [(sd, float(_fmt(s))) for sd, s, _ in items],
            "_runs": [rid for _, _, rid in items],
        })
    return rows


def write_summary_csv(rows: list[dict], path) -> None:
    with open(path, "w") as f:
        f.write(",".join(SUMMARY_COLUMNS) + "\n")
        for r in rows:
            per_seed = "|".join(f"{sd}={_fmt(s)}" for sd, s in r["per_seed"])
            f.write(",".join([_fmt(r[c]) for c in SUMMARY_COLUMNS[:-1]] + [per_seed]) + "\n")


def write_timeseries(sweep_root, run_id: str, out_dir) -> Path | None:
    """Copy the per-step area-weighted global means of a run's rollout."""
    src = Path(sweep_root) / run_id / "rollout" / "timeseries.csv"
    if not src.exists():
        return None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dst = out_dir / f"{run_id}.csv"
    dst.write_bytes(src.read_bytes())
    return dst


def write_difference_maps(sweep_root, run_id: str, reference: DatasetStore,
                          out_dir) -> list[Path]:
    """Per-variable CSV maps of rollout temporal mean minus reference mean."""
    run_dir = Path(sweep_root) / run_id / "rollout"
    meta_path = run_dir / "meta.json"
    if not meta_path.exists():
        return []
    variables, grid, t0, steps = read_json(meta_path, lambda meta: (
        meta["variables"], (meta["grid"]["n_lon"], meta["grid"]["n_lat"]),
        parse_timestamp(meta["start_time"]), meta["steps"]))
    if grid != (reference.grid.n_lon, reference.grid.n_lat):
        raise ConfigError(f"run {run_id} was rolled out on the {grid[0]}x{grid[1]} grid, but "
                          f"the reference {reference.root} is on the "
                          f"{reference.grid.n_lon}x{reference.grid.n_lat} grid")
    means = read_array(run_dir / "means.bin", (len(variables),) + reference.grid.shape, "<f8")
    ref_mean, _ = _reference_stats(reference, variables, t0, steps, f"run {run_id}'s rollout")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for k, var in enumerate(variables):
        path = out_dir / f"{run_id}_{var}.csv"
        np.savetxt(path, means[k] - ref_mean[k], delimiter=",", fmt="%.9g")
        written.append(path)
    return written


def write_scatter_svg(rows: list[dict], path) -> None:
    """Minimal scatter: dots = per-config mean, bars = std, crosses = seeds."""
    width, height = 80 + 90 * max(len(rows), 1), 360
    px0, py0, ph = 60, 20, 300
    finite_scores = [s for r in rows for _, s in r["per_seed"] if math.isfinite(s)]
    ymax = min(max(finite_scores + [0.1]) * 1.15, Y_CUT)

    def ypix(v):
        return py0 + ph * (1.0 - min(v, ymax) / ymax)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py0 + ph}" stroke="black"/>',
             f'<line x1="{px0}" y1="{py0 + ph}" x2="{width - 20}" y2="{py0 + ph}" stroke="black"/>']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = frac * ymax
        parts.append(f'<text x="4" y="{ypix(v) + 4}" font-size="10">{v:.3g}</text>')
    for i, r in enumerate(rows):
        x = px0 + 45 + 90 * i
        shown = 0
        for _, val in r["per_seed"]:
            if math.isfinite(val) and val <= ymax:
                shown += 1
                y = ypix(val)
                parts.append(f'<path d="M{x - 9} {y - 4} l8 8 m0 -8 l-8 8" '
                             f'stroke="gray" fill="none"/>')
        if r["score_mean"] is not None and r["score_mean"] <= ymax:
            y = ypix(r["score_mean"])
            sd = r["score_std"] or 0.0
            parts.append(f'<line x1="{x + 8}" y1="{ypix(r["score_mean"] + sd)}" '
                         f'x2="{x + 8}" y2="{ypix(max(r["score_mean"] - sd, 0.0))}" '
                         f'stroke="black"/>')
            parts.append(f'<circle cx="{x + 8}" cy="{y}" r="4" fill="black"/>')
        parts.append(f'<text x="{x - 30}" y="{py0 + ph + 14}" font-size="9">'
                     f'{r["config"]}</text>')
        parts.append(f'<text x="{x - 10}" y="{py0 + ph + 28}" font-size="9">'
                     f'{shown}/{r["n_seeds"]}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def write_report(sweep_root, out_dir, reference: DatasetStore | None = None,
                 svg: bool = False) -> dict:
    """Emit summary.csv plus per-run timeseries (and maps when a reference
    store is given) under out_dir."""
    rows = collect_summary(sweep_root)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(rows, out_dir / "summary.csv")
    n_ts = n_maps = 0
    for r in rows:
        for rid in r["_runs"]:
            if write_timeseries(sweep_root, rid, out_dir / "timeseries"):
                n_ts += 1
            if reference is not None:
                n_maps += len(write_difference_maps(
                    sweep_root, rid, reference, out_dir / "maps"))
    if svg:
        write_scatter_svg(rows, out_dir / "scores.svg")
    return {"configs": len(rows), "timeseries": n_ts, "maps": n_maps}
