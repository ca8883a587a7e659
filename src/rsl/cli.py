"""Command-line surface: gen-data, train, rollout, sweep, report, verify.

Exit codes: 0 success, 2 configuration/validation error, 3 training run
failed with a non-finite loss (the record is still written). The run-artifact
root defaults to ./runs and can be overridden with RSL_RUN_ROOT.

A JSON experiment config file may carry the sections
{dataset, variable_set, model, training, sweep, rollout, evaluation};
unknown keys are rejected, flags take precedence over file values, and the
fully resolved configuration is echoed into the run directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .atomic import write_json_atomic
from .data import (DatasetStore, NormalizationStats, SyntheticConfig,
                   compute_normalization, forcing_provider,
                   generate_synthetic_climate, normalized_constants,
                   parse_date, parse_timestamp, range_end, variable_set)
from .errors import ConfigError
from .evaluate import climatology_baseline, rollout, stability_score
from .grid import area_weights, make_grid
from .models import build_model, model_spec
from .reports import write_report
from .train import (SweepSpec, TrainConfig, run_id, run_sweep, run_training)
from .verify import main_verify

_SECTION_KEYS = {
    "dataset": {"path", "seed", "years", "grid", "vars", "start_year", "out"},
    "variable_set": {"name", "n_prognostic"},
    "model": {"arch", "layers", "dim", "patch", "heads", "mlp_ratio",
              "decoder_depth", "sparsity_threshold", "hard_threshold_fraction",
              "blocks", "pos_embed", "big_skip", "use_mlp"},
    "training": {"m_steps", "seed", "batch_size", "epochs", "lr",
                 "train_start", "train_end", "val_start", "val_end",
                 "patience", "grad_clip", "replication"},
    "sweep": {"archs", "variable_sets", "m_steps", "layers", "dims", "seeds",
              "train_start", "train_end", "val_start", "val_end",
              "batch_size", "epochs", "replication"},
    "rollout": {"years", "steps", "start", "reference", "modes"},
    "evaluation": {"modes"},
}


def load_config_file(path) -> dict:
    with open(path) as f:
        doc = json.load(f)
    unknown = set(doc) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section, body in doc.items():
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        bad = set(body) - _SECTION_KEYS[section]
        if bad:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(bad)}")
    return doc


def _run_root(args) -> Path:
    if getattr(args, "run_root", None):
        return Path(args.run_root)
    return Path(os.environ.get("RSL_RUN_ROOT", "runs"))


def _parse_grid(s: str):
    try:
        w, h = (int(part) for part in s.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad --grid {s!r}: expected WxH") from exc
    return make_grid(w, h)


def _parse_vars(s: str):
    if s.startswith("custom:"):
        return variable_set("custom", int(s.split(":")[1]))
    return variable_set(s)


# ------------------------------------------------------------------ gen-data

def cmd_gen_data(args) -> int:
    cfg = {}
    if args.config:
        cfg = load_config_file(args.config).get("dataset", {})
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    years = args.years if args.years is not None else cfg.get("years", 3)
    grid = _parse_grid(args.grid or cfg.get("grid", "32x16"))
    vs = _parse_vars(args.vars or cfg.get("vars", "vars8"))
    out = Path(args.out or cfg.get("out", "dataset"))
    start_year = args.start_year if args.start_year is not None else \
        cfg.get("start_year", 2006)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"output directory {out} is not empty (use --force)")
    store = generate_synthetic_climate(
        SyntheticConfig(seed=seed, years=years, grid=grid, variable_set=vs,
                        start_year=start_year), out)
    stats = compute_normalization(store, store.start, store.end - timedelta(hours=18))
    store.save_stats(stats)
    print(f"dataset {out}: grid {grid.n_lon}x{grid.n_lat}, "
          f"{len(store.prognostic)} prognostic variables, "
          f"{store.n_steps} steps from {store.start.isoformat()}")
    return 0


# ------------------------------------------------------------------ train

def _train_config_from(args) -> TrainConfig:
    doc = load_config_file(args.config) if args.config else {}
    tr = doc.get("training", {})
    md = doc.get("model", {})
    vs_name = args.vars or doc.get("variable_set", {}).get("name", "vars8")
    vs = _parse_vars(vs_name)
    arch = args.arch or md.get("arch")
    if not arch:
        raise ConfigError("an architecture is required (--arch or config model.arch)")
    overrides = {}
    if md.get("patch"):
        overrides["patch_size"] = tuple(md["patch"])
    for k_file, k_spec in (("heads", "n_heads"), ("mlp_ratio", "mlp_ratio"),
                           ("decoder_depth", "decoder_depth"),
                           ("sparsity_threshold", "sparsity_threshold"),
                           ("hard_threshold_fraction", "hard_threshold_fraction"),
                           ("blocks", "n_blocks"), ("pos_embed", "use_pos_embed"),
                           ("big_skip", "big_skip"), ("use_mlp", "use_mlp")):
        if k_file in md:
            overrides[k_spec] = md[k_file]
    replication = (args.replication if args.replication is not None
                   else tr.get("replication", False))
    spec = model_spec(
        arch,
        n_layers=args.layers if args.layers is not None else md.get("layers", 4),
        hidden_dim=args.dim if args.dim is not None else md.get("dim", 128),
        n_prognostic=vs.n_prognostic, n_forcing=len(vs.forcings),
        n_constant=len(vs.constants), replication=replication, **overrides)

    def pick(flag, key, default):
        v = getattr(args, flag, None)
        return v if v is not None else tr.get(key, default)

    return TrainConfig(
        model=spec,
        m_steps=pick("m_steps", "m_steps", 1),
        seed=pick("seed", "seed", 597),
        variable_set=vs_name,
        train_start=pick("train_start", "train_start", "2006-01-01"),
        train_end=pick("train_end", "train_end", "2007-12-31"),
        val_start=pick("val_start", "val_start", "2008-01-01"),
        val_end=pick("val_end", "val_end", "2008-12-31"),
        batch_size=pick("batch_size", "batch_size", 32),
        lr_init=pick("lr", "lr", None),
        epochs=pick("epochs", "epochs", 5),
        early_stop_patience=pick("patience", "patience", 5),
        grad_clip_norm=pick("grad_clip", "grad_clip", 0.001),
        replication=replication)


def cmd_train(args) -> int:
    cfg = _train_config_from(args)
    store = DatasetStore.open(args.data)
    rid = run_id(cfg)
    run_dir = Path(args.run_dir) if args.run_dir else _run_root(args) / rid
    record = run_training(cfg, store, run_dir)
    print(f"run {rid}: {record.status} "
          f"(best val {record.best_val:.6g} at epoch {record.best_epoch})")
    print(f"artifacts under {run_dir}")
    return 0 if record.status == "ok" else 3


# ------------------------------------------------------------------ rollout

def _calendar_steps(start: datetime, years: int) -> int:
    end = datetime(start.year + years, start.month, start.day, start.hour)
    return int((end - start).total_seconds()) // (6 * 3600)


def cmd_rollout(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.exists():
        run_dir = _run_root(args) / args.run
    ckpt = run_dir / "best.ckpt"
    if not ckpt.exists():
        raise ConfigError(f"no checkpoint under {run_dir}")
    with open(run_dir / "config.json") as f:
        cfg = TrainConfig.from_json(json.load(f))
    with open(run_dir / "stats.json") as f:
        stats = NormalizationStats.from_json(json.load(f))
    reference = DatasetStore.open(args.reference)
    train_store = DatasetStore.open(args.data) if args.data else reference

    if args.start:
        start = parse_timestamp(args.start)
    else:
        start = parse_date(cfg.val_end) + timedelta(days=1)
    n_steps = args.steps if args.steps else _calendar_steps(start, args.years)

    state = build_model(cfg.model, reference.grid, cfg.seed)
    state.load(ckpt)
    weights = area_weights(reference.grid)
    varset = reference.varset
    i0 = reference.time_index(start)
    x0 = np.stack([stats.normalize(v, reference.read_steps(v, [i0])[0])
                   for v in reference.prognostic]).astype(np.float32)
    c = normalized_constants(reference)
    base_provider = forcing_provider(reference, stats)
    stats_out = rollout(state, x0, lambda m: base_provider(i0 + m), c, n_steps,
                        stats, weights, reference.prognostic, start_time=start)
    stats_out.save(run_dir / "rollout")

    t_start = parse_date(cfg.train_start)
    t_steps = train_store.time_index(range_end(parse_date(cfg.train_end))) \
        - train_store.time_index(t_start) + 1
    scores = {}
    clim = {}
    for mode in ("mean", "std"):
        scores[mode] = stability_score(stats_out, reference, stats, weights,
                                       varset, start, n_steps, mode=mode).to_json()
        clim[mode] = climatology_baseline(train_store, reference, stats, weights,
                                          varset, t_start, t_steps, start,
                                          n_steps, mode=mode).to_json()
    doc = {"run": run_dir.name, "seed": cfg.seed, "finite": stats_out.finite,
           "blowup_step": stats_out.first_nonfinite_step,
           "steps": stats_out.count, "start": start.isoformat(),
           "scores": scores, "climatology": clim,
           "config": cfg.to_json()}
    write_json_atomic(run_dir / "score.json", doc)
    agg = scores["mean"]["aggregate"]
    print(f"rollout {stats_out.count} steps, finite={stats_out.finite}, "
          f"mean-state score {agg} (climatology {clim['mean']['aggregate']})")
    return 0


# ------------------------------------------------------------------ sweep

def cmd_sweep(args) -> int:
    doc = load_config_file(args.config)
    sw = doc.get("sweep")
    if not sw:
        raise ConfigError("config file has no 'sweep' section")
    sweep = SweepSpec.from_json(sw)
    root = _run_root(args)
    manifest = run_sweep(sweep, args.data, root, jobs=args.jobs,
                         log=lambda s: print(s))
    counts = {}
    for r in manifest["runs"]:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    print(f"sweep: {len(manifest['runs'])} runs {counts} -> {root}/sweep.json")
    return 0


# ------------------------------------------------------------------ report

def cmd_report(args) -> int:
    reference = DatasetStore.open(args.reference) if args.reference else None
    out = Path(args.out) if args.out else Path(args.sweep_root) / "report"
    info = write_report(args.sweep_root, out, reference=reference, svg=args.svg)
    print(f"report: {info['configs']} configurations, "
          f"{info['timeseries']} timeseries, {info['maps']} maps -> {out}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rsl",
        description="Train spherical autoregressive emulators and score "
                    "long-rollout stability.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic reference climate")
    g.add_argument("--config")
    g.add_argument("--seed", type=int)
    g.add_argument("--years", type=int)
    g.add_argument("--grid", help="WxH, e.g. 64x32")
    g.add_argument("--vars", help="vars8 | vars33 | custom:K")
    g.add_argument("--start-year", type=int, dest="start_year")
    g.add_argument("--out")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train one configuration")
    t.add_argument("--config")
    t.add_argument("--data", required=True)
    t.add_argument("--arch", choices=["climax", "fcn", "sfno"])
    t.add_argument("--layers", type=int)
    t.add_argument("--dim", type=int)
    t.add_argument("--m-steps", type=int, dest="m_steps")
    t.add_argument("--seed", type=int)
    t.add_argument("--vars")
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--patience", type=int)
    t.add_argument("--grad-clip", type=float, dest="grad_clip")
    t.add_argument("--train-start", dest="train_start")
    t.add_argument("--train-end", dest="train_end")
    t.add_argument("--val-start", dest="val_start")
    t.add_argument("--val-end", dest="val_end")
    t.add_argument("--replication", action="store_const", const=True, default=None)
    t.add_argument("--run-root", dest="run_root")
    t.add_argument("--run-dir", dest="run_dir")
    t.set_defaults(func=cmd_train)

    r = sub.add_parser("rollout", help="roll a trained model out and score it")
    r.add_argument("--run", required=True, help="run id or run directory")
    r.add_argument("--reference", required=True, help="reference dataset dir")
    r.add_argument("--data", help="training dataset dir (default: reference)")
    r.add_argument("--steps", type=int)
    r.add_argument("--years", type=int, default=10)
    r.add_argument("--start", help="initial condition timestamp (ISO)")
    r.add_argument("--run-root", dest="run_root")
    r.set_defaults(func=cmd_rollout)

    s = sub.add_parser("sweep", help="run a grid-search sweep")
    s.add_argument("--config", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--run-root", dest="run_root")
    s.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("report", help="aggregate sweep scores into tables")
    rp.add_argument("--sweep-root", required=True, dest="sweep_root")
    rp.add_argument("--out")
    rp.add_argument("--reference")
    rp.add_argument("--svg", action="store_true")
    rp.set_defaults(func=cmd_report)

    v = sub.add_parser("verify", help="run the built-in invariant checks")
    v.set_defaults(func=lambda args: main_verify())
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
