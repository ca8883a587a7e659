"""Command-line surface: gen-data, train, rollout, sweep, report, verify.

Exit codes: 0 success, 2 configuration/validation error, 3 training run
failed with a non-finite loss (the record is still written). The run-artifact
root defaults to ./runs and can be overridden with RSL_RUN_ROOT.

A JSON experiment config file may carry the sections
{dataset, variable_set, model, training, sweep}, and every key it accepts is
read; unknown keys and values of the wrong type are rejected. `rsl train` is a
one-point grid and `rsl sweep` a full one, both built by `enumerate_runs`: a
flag wins over the file, and the file over the dataclass default. The fully
resolved configuration is echoed into the run directory as
config.json. `rsl gen-data` resolves its settings the same way, and
SyntheticConfig's field defaults are its defaults. A manifest.json,
config.json, stats.json, record.json, sweep.json, score.json, meta.json or
means.bin this version cannot read (truncated, or written with other keys)
exits 2, naming the file, and so does a path flag that names a missing path
or one of the wrong kind (a file for a directory, or the reverse).
"""

from __future__ import annotations

import argparse
import calendar
import dataclasses
import os
import sys
from datetime import datetime, timedelta
from pathlib import Path

from .atomic import read_json, write_json_atomic
from .data import (STEP, DatasetStore, NormalizationStats, SyntheticConfig,
                   compute_normalization, forcing_provider,
                   generate_synthetic_climate, normalized_constants,
                   normalized_fields, parse_timestamp,
                   parse_variable_set, range_end, spell_variable_set)
from .errors import ConfigError, check_type
from .evaluate import climatology_baseline, rollout, stability_score
from .grid import area_weights, make_grid
from .models import ARCHS, ModelSpec, build_model, check_patch
from .reports import write_report
from .train import (SweepSpec, TrainConfig, check_variables, enumerate_runs,
                    run_id, run_sweep, run_training)
from .verify import main_verify

# Config-file section -> the dataclass its values set, and each key -> the field
# it sets (`rsl train`'s and `rsl gen-data`'s flags carry the key names). The
# dataset keys grid and vars are strings that _SPELLED parses into their
# fields; out, gen-data's output directory, sets no field.
_SECTIONS = {
    "dataset": (SyntheticConfig, {"seed": "seed", "years": "years",
                                  "start_year": "start_year", "grid": "grid",
                                  "vars": "variable_set", "out": None}),
    "variable_set": (TrainConfig, {"name": "variable_set"}),
    "model": (ModelSpec, {
        "arch": "arch", "layers": "n_layers", "dim": "hidden_dim",
        "patch": "patch_size", "heads": "n_heads", "mlp_ratio": "mlp_ratio",
        "sparsity_threshold": "sparsity_threshold",
        "hard_threshold_fraction": "hard_threshold_fraction",
        "blocks": "n_blocks", "pos_embed": "use_pos_embed", "use_mlp": "use_mlp"}),
    "training": (TrainConfig, {
        "m_steps": "m_steps", "seed": "seed", "batch_size": "batch_size",
        "epochs": "epochs", "lr": "lr_init", "train_start": "train_start",
        "train_end": "train_end", "val_start": "val_start", "val_end": "val_end",
        "patience": "early_stop_patience", "grad_clip": "grad_clip_norm",
        "replication": "replication"}),
    "sweep": (SweepSpec, {f.name: f.name for f in dataclasses.fields(SweepSpec)}),
}
# Keys that set a grid axis: a sweep takes them from its 'sweep' section.
_AXIS_KEYS = {"model": ("arch", "layers", "dim"), "training": ("m_steps", "seed"),
              "variable_set": ("name",)}


def load_config_file(path) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: a config file must hold one JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section, body in doc.items():
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        cls, keys = _SECTIONS[section]
        bad = set(body) - set(keys)
        if bad:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(bad)}")
        for key, value in body.items():
            where = f"config section {section!r}: key {key!r}"
            if keys[key] is None or (cls is SyntheticConfig and keys[key] in _SPELLED):
                if not isinstance(value, str):
                    raise ConfigError(f"{where}: expected a string, got {value!r}")
            else:
                check_type(cls, keys[key], value, where)
    return doc


def _settings(doc: dict, section: str, args=None) -> dict:
    """Field -> value for each key of `section` that sets a field and that a
    flag in `args` or the config file sets; the flag wins."""
    body = doc.get(section, {})
    out = {}
    for key, name in _SECTIONS[section][1].items():
        if name is None:
            continue
        flag = getattr(args, key, None)
        if flag is not None:
            out[name] = flag
        elif key in body:
            out[name] = body[key]
    return out


def _directory(path: Path, flag: str) -> Path:
    """`path`, unless it or the nearest of its parents that exists is a file,
    which is a ConfigError naming `flag`: no directory can be made there."""
    held = next(p for p in (path, *path.parents) if p.exists())
    if not held.is_dir():
        raise ConfigError(f"{flag} {path}: {held} is a file, not a directory")
    return path


def _run_root(args, *parts: str) -> Path:
    """The run-artefact root joined with `parts`, checked by _directory
    against the flag or variable that named the root."""
    if getattr(args, "run_root", None):
        return _directory(Path(args.run_root, *parts), "--run-root")
    return _directory(Path(os.environ.get("RSL_RUN_ROOT", "runs"), *parts), "RSL_RUN_ROOT")


def _parse_grid(s: str):
    try:
        w, h = (int(part) for part in s.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad --grid {s!r}: expected WxH") from exc
    return make_grid(w, h)


# SyntheticConfig field -> the parser of the string a flag or the config file
# spells it as.
_SPELLED = {"grid": _parse_grid, "variable_set": parse_variable_set}


# ------------------------------------------------------------------ gen-data

def cmd_gen_data(args) -> int:
    doc = load_config_file(args.config) if args.config else {}
    fields = _settings(doc, "dataset", args)
    for name, parse in _SPELLED.items():
        if name in fields:
            fields[name] = parse(fields[name])
    out = _directory(Path(args.out or doc.get("dataset", {}).get("out", "dataset")),
                     "--out" if args.out else "config dataset.out")
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"output directory {out} is not empty (use --force)")
    store = generate_synthetic_climate(SyntheticConfig(**fields), out)
    stats = compute_normalization(store, store.start, store.end + STEP - timedelta(days=1))
    store.save_stats(stats)
    print(f"dataset {out}: grid {store.grid.n_lon}x{store.grid.n_lat}, "
          f"{len(store.prognostic)} prognostic variables, "
          f"{store.n_steps} steps from {store.start.isoformat()}")
    return 0


# ------------------------------------------------------------------ train

def _train_config_from(args, doc: dict, store: DatasetStore) -> TrainConfig:
    """The one point of the grid that `rsl train`'s flags and config file
    name. Without --vars or variable_set.name it trains on the store's set."""
    model, training = _settings(doc, "model", args), _settings(doc, "training", args)
    arch = model.pop("arch", None)
    if not arch:
        raise ConfigError("an architecture is required (--arch or config model.arch)")
    vs = args.vars or doc.get("variable_set", {}).get("name") \
        or spell_variable_set(store.varset)
    point = SweepSpec(archs=[arch], variable_sets=[vs],
                      m_steps=[training.pop("m_steps", 1)],
                      layers=[model.pop("n_layers", 4)],
                      dims=[model.pop("hidden_dim", 128)],
                      seeds=[training.pop("seed", 597)])
    (cfg,) = enumerate_runs(point, model, **training)
    return cfg


def cmd_train(args) -> int:
    doc = load_config_file(args.config) if args.config else {}
    store = DatasetStore.open(args.data)
    cfg = _train_config_from(args, doc, store)
    rid = run_id(cfg)
    run_dir = _directory(Path(args.run_dir), "--run-dir") if args.run_dir \
        else _run_root(args, rid)
    record = run_training(cfg, store, run_dir)
    print(f"run {rid}: {record.status} "
          f"(best val {record.best_val:.6g} at epoch {record.best_epoch})")
    print(f"artifacts under {run_dir}")
    return 0 if record.status == "ok" else 3


# ------------------------------------------------------------------ rollout

def _calendar_steps(start: datetime, years: int) -> int:
    """Steps from `start` to its `years`-th anniversary; from 29 February the
    period ends on 28 February when the target year has no leap day."""
    year = start.year + years
    day = 28 if (start.month, start.day) == (2, 29) and not calendar.isleap(year) \
        else start.day
    end = datetime(year, start.month, day, start.hour)
    return (end - start) // STEP


def cmd_rollout(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.exists():
        run_dir = _run_root(args) / args.run
    ckpt = run_dir / "best.ckpt"
    if not ckpt.exists():
        raise ConfigError(f"no checkpoint under {run_dir}")
    cfg = read_json(run_dir / "config.json", TrainConfig.from_json)
    reference = DatasetStore.open(args.reference)
    train_store = DatasetStore.open(args.data) if args.data else reference
    for store in (reference, train_store):
        check_variables(cfg, store)
    check_patch(cfg.model, reference.grid)

    def checked_stats(doc):
        stats = NormalizationStats.from_json(doc)
        held = sorted(reference.prognostic + reference.forcings)
        if sorted(stats.values) != held:
            raise ConfigError(f"values hold {sorted(stats.values)}, but the store "
                              f"{reference.root} holds {held}")
        return stats
    stats = read_json(run_dir / "stats.json", checked_stats)

    t_start, t_end = cfg.windows["train"]
    start = parse_timestamp(args.start, "--start") if args.start \
        else cfg.windows["val"][1] + timedelta(days=1)
    for flag in ("steps", "years"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")
    from_start = f"from --start {start.isoformat()}" \
        + ("" if args.start else " (the day after val_end)")
    try:
        n_steps = args.steps if args.steps is not None else _calendar_steps(start, args.years)
        last = start + (n_steps - 1) * STEP
    except (OverflowError, ValueError):      # past datetime's last year
        raise ConfigError(f"a rollout {from_start} ends after {datetime.max:%Y}") from None
    i0 = reference.steps(start, last, f"a rollout of {n_steps} steps {from_start}").start
    if train_store.grid.shape != reference.grid.shape:
        raise ConfigError(f"the training store {args.data} and the reference "
                          f"{args.reference} are on different grids")
    t_steps = len(train_store.steps(t_start, range_end(t_end), f"train_start..train_end "
                                    f"{t_start:%Y-%m-%d}..{t_end:%Y-%m-%d}"))

    weights = area_weights(reference.grid)
    varset = reference.varset
    # The climatology reads and checks the training and the scored windows
    # before the first step; stability_score then finds them memoised.
    clim = {mode: climatology_baseline(train_store, reference, stats, weights, varset,
                                       t_start, t_steps, start, n_steps, mode=mode).to_json()
            for mode in ("mean", "std")}
    state = build_model(cfg.model, reference.grid, cfg.seed)
    state.load(ckpt)
    x0 = normalized_fields(reference, stats, reference.prognostic, [i0])[0]
    c = normalized_constants(reference)
    base_provider = forcing_provider(reference, stats)
    stats_out = rollout(state, x0, lambda m: base_provider(i0 + m), c, n_steps,
                        stats, weights, reference.prognostic, start_time=start)

    scores = {mode: stability_score(stats_out, reference, stats, weights, varset,
                                    start, n_steps, mode=mode).to_json()
              for mode in ("mean", "std")}
    stats_out.save(run_dir / "rollout")
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
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    doc = load_config_file(args.config)
    sw = doc.get("sweep")
    if not sw:
        raise ConfigError("config file has no 'sweep' section")
    axes = [f"{section}.{key}" for section, keys in _AXIS_KEYS.items()
            for key in keys if key in doc.get(section, {})]
    if axes:
        raise ConfigError(f"config keys {axes} set grid axes; a sweep takes "
                          f"them from its 'sweep' section")
    configs = enumerate_runs(SweepSpec.from_json(sw), _settings(doc, "model"),
                             **_settings(doc, "training"))
    root = _run_root(args)
    for cfg in configs:                 # a file at a run directory: refused before any run
        _run_root(args, run_id(cfg))
    manifest = run_sweep(configs, args.data, root, jobs=args.jobs,
                         log=lambda s: print(s))
    counts = {}
    for r in manifest["runs"]:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    print(f"sweep: {len(manifest['runs'])} runs {counts} -> {root}/sweep.json")
    return 0


# ------------------------------------------------------------------ report

def cmd_report(args) -> int:
    reference = DatasetStore.open(args.reference) if args.reference else None
    out = _directory(Path(args.out), "--out") if args.out \
        else _directory(Path(args.sweep_root, "report"), "the default --out")
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
    t.add_argument("--arch", choices=ARCHS)
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
    except (ConfigError, FileNotFoundError, NotADirectoryError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
