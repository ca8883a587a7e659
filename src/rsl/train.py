"""Multi-step autoregressive training, the optimization protocol, and the
grid-search sweep runner.

The loss for one sample unrolls the model M steps feeding its own predictions
forward, sums the per-step area-weighted squared errors, and backpropagates
once through the whole chain. The reported scalar is the paper sum divided by
(M * K_p * H * W) and averaged over the batch, so magnitudes are comparable
across configurations; gradients differ from the raw sum only by that positive
constant.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import operator
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .atomic import atomic_path, read_json, write_json_atomic
from .data import (STEP, DatasetStore, NormalizationStats, compute_normalization,
                   load_batch, parse_date, parse_variable_set, range_end,
                   sample_index, spell_variable_set)
from .errors import ConfigError, dataclass_kwargs
from .grid import AreaWeights, area_weighted_mean, area_weights
from .models import (ModelSpec, ModelState, build_model, model_forward_t,
                     model_spec, unread_fields)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Appendix-style replication protocol constants.
REPLICATION_LR = {"climax": 4e-3, "fcn": 4e-3, "sfno": 1e-3}
REPLICATION_EPOCHS = 20
REPLICATION_PATIENCE = 5
REPLICATION_CLIP = 0.001
REPLICATION_BATCH = 64
REPLICATION_M = (1, 2, 4)
REPLICATION_LAYERS = (4, 6, 8)
REPLICATION_DIMS = (128, 256, 512)
PAPER_SEEDS = (597, 1152, 1826, 3909, 6153, 5513, 5707, 9813, 9941, 9982)


@dataclass(frozen=True)
class TrainConfig:
    model: ModelSpec
    m_steps: int
    seed: int
    variable_set: str
    train_start: str = "2006-01-01"
    train_end: str = "2007-12-31"
    val_start: str = "2008-01-01"
    val_end: str = "2008-12-31"
    batch_size: int = 32
    lr_init: float | None = None          # None -> per-architecture default
    epochs: int = 5
    early_stop_patience: int = REPLICATION_PATIENCE
    grad_clip_norm: float = REPLICATION_CLIP
    replication: bool = False

    def __post_init__(self):
        """ConfigError unless every setting the store does not decide is valid.
        The dates and the variable set are kept in their canonical spelling, so
        that one experiment has one run id."""
        for name, low in (("m_steps", 1), ("batch_size", 1), ("epochs", 1), ("seed", 0),
                          ("early_stop_patience", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("lr", "grad_clip_norm"):      # lr is lr_init or the arch default
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for w, (start, end) in self.windows.items():
            if end < start:
                raise ConfigError(f"{w}_end {end:%Y-%m-%d} is before {w}_start {start:%Y-%m-%d}")
            object.__setattr__(self, f"{w}_start", start.date().isoformat())
            object.__setattr__(self, f"{w}_end", end.date().isoformat())
        object.__setattr__(self, "variable_set",
                           spell_variable_set(parse_variable_set(self.variable_set)))
        if not self.replication:
            return
        for name, allowed in (("m_steps", REPLICATION_M), ("batch_size", (REPLICATION_BATCH,)),
                              ("epochs", (REPLICATION_EPOCHS,)),
                              ("early_stop_patience", (REPLICATION_PATIENCE,)),
                              ("grad_clip_norm", (REPLICATION_CLIP,)),
                              ("lr", (REPLICATION_LR[self.model.arch],)),
                              ("model.n_layers", REPLICATION_LAYERS),
                              ("model.hidden_dim", REPLICATION_DIMS)):
            value = operator.attrgetter(name)(self)
            if value not in allowed:
                raise ConfigError(f"replication mode requires {name} in {allowed}, got {value}")

    @property
    def lr(self) -> float:
        return REPLICATION_LR[self.model.arch] if self.lr_init is None else self.lr_init

    @property
    def windows(self) -> dict:
        """"train" and "val" -> the first and last day of that date window."""
        return {w: (parse_date(getattr(self, f"{w}_start"), f"{w}_start"),
                    parse_date(getattr(self, f"{w}_end"), f"{w}_end"))
                for w in ("train", "val")}

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        d["model"] = self.model.to_json()
        return d

    @staticmethod
    def from_json(d: dict) -> "TrainConfig":
        d = dataclass_kwargs(TrainConfig, d, "config")
        d["model"] = ModelSpec.from_json(d["model"])
        return TrainConfig(**d)


def check_variables(cfg: TrainConfig, store: DatasetStore) -> None:
    """ConfigError naming both sets unless `store` holds the prognostic,
    forcing and constant variables `cfg.variable_set` names, in order, and
    `cfg.model` counts that many of each."""
    vs = parse_variable_set(cfg.variable_set)
    held = (store.prognostic, store.forcings, store.constants)
    counts = (cfg.model.n_prognostic, cfg.model.n_forcing, cfg.model.n_constant)
    if (vs.prognostic, vs.forcings, vs.constants) != held \
            or counts != tuple(map(len, held)):
        raise ConfigError(
            f"variable set {cfg.variable_set} (model counts {counts}) does not "
            f"match the dataset {store.root}, which holds "
            f"{spell_variable_set(store.varset)}: prognostic {list(store.prognostic)}, "
            f"forcings {list(store.forcings)}, constants {list(store.constants)}")


def check_store(cfg: TrainConfig, store: DatasetStore) -> None:
    """ConfigError unless `store` holds everything train(cfg) reads from it:
    the variables (see check_variables) and, for each date window, its first
    sample with that sample's M-step horizon, so that the window holds at
    least one sample; all of the training window, which normalization reads."""
    check_variables(cfg, store)
    for w, (start, end) in cfg.windows.items():
        need = start + cfg.m_steps * STEP
        if w == "train":
            need = max(need, range_end(end))
        store.steps(start, need, f"{w}_start..{w}_end {start:%Y-%m-%d}..{end:%Y-%m-%d} "
                                 f"at M={cfg.m_steps}")


def run_id(cfg: TrainConfig) -> str:
    blob = json.dumps(cfg.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ------------------------------------------------------------------ loss

def multi_step_loss(state: ModelState, x_seq: list[np.ndarray], f_seq: list[np.ndarray],
                    c: np.ndarray, weights: AreaWeights,
                    step_terms: list | None = None) -> ad.Tensor:
    """L = (1/M) sum_m mean_{batch,k} area_mean((Xhat_{m+1} - X_{m+1})^2),
    with Xhat fed forward from the model's own predictions.

    When `step_terms` is given, the per-step scalar errors are appended to it
    (term 0 is the 1-step error)."""
    m_steps = len(f_seq)
    if len(x_seq) != m_steps + 1:
        raise ConfigError(f"need {m_steps + 1} states for {m_steps} steps")
    cur = ad.Tensor(x_seq[0])
    cc = ad.Tensor(c)
    total = None
    for m in range(m_steps):
        cur = ad.add(cur, model_forward_t(state, cur, ad.Tensor(f_seq[m]), cc))
        diff = ad.sub(cur, ad.Tensor(x_seq[m + 1]))
        term = ad.mean_(ad.lat_weighted_mean(ad.mul(diff, diff), weights.weights))
        if step_terms is not None:
            step_terms.append(float(term.data))
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / m_steps)


def persistence_loss(x_seq: list[np.ndarray], weights: AreaWeights) -> float:
    """The same objective for the trivial f=0 model (no graph)."""
    x0 = np.asarray(x_seq[0], np.float64)
    total = 0.0
    for m in range(1, len(x_seq)):
        d2 = (x0 - np.asarray(x_seq[m], np.float64)) ** 2
        total += area_weighted_mean(d2, weights).mean()
    return total / (len(x_seq) - 1)


# ------------------------------------------------------------------ optimizer

class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0


def adam_step(params: dict[str, ad.Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data = p.data - p.data.dtype.type(lr) * update.astype(p.data.dtype)


def cosine_lr(epoch: int, epochs_total: int, lr_init: float) -> float:
    """Epoch-granular cosine annealing toward zero."""
    if not 0 <= epoch < epochs_total:
        raise ConfigError(f"epoch {epoch} outside [0, {epochs_total})")
    return lr_init * 0.5 * (1.0 + np.cos(np.pi * epoch / epochs_total))


def clip_grad_norm(grads: dict[str, np.ndarray],
                   max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their global L2 norm is at most max_norm. A
    non-finite norm comes back with the gradients unscaled."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0 or not np.isfinite(norm):
        return grads, norm
    s = max_norm / norm
    return {k: g * np.asarray(g).dtype.type(s) for k, g in grads.items()}, norm


# ------------------------------------------------------------------ records

@dataclass
class TrainRecord:
    status: str                       # "ok" | "failed"
    seed: int
    val_m_steps: int
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = 0               # 1-based
    best_val: float = float("inf")
    stopped_epoch: int = 0
    persistence_val: float = float("nan")
    val_rmse_1step: float = float("nan")   # cross-check for rollout instability
    diagnostics: dict | None = None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


# ------------------------------------------------------------------ training

def _batched(indices: np.ndarray, size: int):
    for i in range(0, len(indices), size):
        yield indices[i : i + size]


def train(cfg: TrainConfig, store: DatasetStore,
          log=lambda s: None) -> tuple[ModelState, TrainRecord, NormalizationStats]:
    """Full training protocol: seeded shuffles, cosine schedule, clipping,
    Adam, patience-based early stopping, best-checkpoint restore."""
    check_store(cfg, store)
    (t_start, t_end), (v_start, v_end) = cfg.windows.values()
    stats = compute_normalization(store, t_start, t_end)
    weights = area_weights(store.grid)
    state = build_model(cfg.model, store.grid, cfg.seed)

    train_ts = sample_index(t_start, t_end, cfg.m_steps, store.end)
    val_ts = sample_index(v_start, v_end, cfg.m_steps, store.end)

    record = TrainRecord(status="ok", seed=cfg.seed, val_m_steps=cfg.m_steps)
    best_params: dict[str, np.ndarray] = {}     # the best epoch's weights
    opt = AdamState()

    def validation() -> tuple[float, float, float]:
        tot = pers = one = 0.0
        n = 0
        with ad.no_grad():
            for chunk in _batched(np.arange(len(val_ts)), 256):
                ts = [val_ts[i] for i in chunk]
                x_seq, f_seq, c = load_batch(store, stats, ts, cfg.m_steps)
                terms: list[float] = []
                loss = multi_step_loss(state, x_seq, f_seq, c, weights, terms)
                tot += loss.item() * len(ts)
                one += terms[0] * len(ts)
                pers += persistence_loss(x_seq, weights) * len(ts)
                n += len(ts)
        return tot / n, pers / n, float(np.sqrt(one / n))

    for epoch in range(1, cfg.epochs + 1):
        lr = cosine_lr(epoch - 1, cfg.epochs, cfg.lr)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch]))
        order = rng.permutation(len(train_ts))
        epoch_loss = 0.0
        n_seen = 0
        t0 = time.time()
        for b_idx, chunk in enumerate(_batched(order, cfg.batch_size)):
            ts = [train_ts[i] for i in chunk]
            x_seq, f_seq, c = load_batch(store, stats, ts, cfg.m_steps)
            ad.zero_grads(state.params.values())
            loss = multi_step_loss(state, x_seq, f_seq, c, weights)
            lval = loss.item()
            reason = None
            if not np.isfinite(lval):
                reason = "non-finite training loss"
            else:
                ad.backward(loss)
                grads = {k: p.grad for k, p in state.params.items() if p.grad is not None}
                grads, norm = clip_grad_norm(grads, cfg.grad_clip_norm)
                if not np.isfinite(norm):
                    reason = "non-finite gradient norm"
            if reason is not None:
                record.status = "failed"
                record.diagnostics = {"reason": reason, "run_id": run_id(cfg),
                                      "epoch": epoch, "batch": b_idx, "seed": cfg.seed}
                log(f"FAILED at epoch {epoch} batch {b_idx}: {reason} (loss={lval})")
                break
            adam_step(state.params, grads, opt, lr)
            epoch_loss += lval * len(ts)
            n_seen += len(ts)
        record.stopped_epoch = epoch
        if record.status == "failed":
            break
        val_loss, val_pers, val_rmse1 = validation()
        record.persistence_val = val_pers
        record.epochs.append({"epoch": epoch, "train_loss": epoch_loss / n_seen,
                              "val_loss": val_loss, "lr": lr})
        log(f"epoch {epoch}: train={epoch_loss / n_seen:.6g} val={val_loss:.6g} "
            f"lr={lr:.3g} ({time.time() - t0:.1f}s)")
        if val_loss < record.best_val:
            record.best_val = val_loss
            record.best_epoch = epoch
            record.val_rmse_1step = val_rmse1
            best_params = {k: p.data.copy() for k, p in state.params.items()}
        if epoch - record.best_epoch >= cfg.early_stop_patience:
            log(f"early stop after epoch {epoch} (best epoch {record.best_epoch})")
            break
    for k, arr in best_params.items():
        state.params[k].data = arr
    return state, record, stats


def run_training(cfg: TrainConfig, store: DatasetStore, run_dir) -> TrainRecord:
    """Train, then write the run-directory artifacts: a configuration train()
    refuses leaves no run directory. Every artefact is written to a temporary
    file and renamed into place, and `record.json` comes last: sweep resume
    treats it as "run complete", so it exists only once everything a rollout
    needs is on disk."""
    lines: list[str] = []
    state, record, stats = train(cfg, store, lines.append)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json_atomic(run_dir / "config.json", cfg.to_json())
    with atomic_path(run_dir / "best.ckpt") as tmp:   # train() restored the best weights
        state.save(tmp)
    write_json_atomic(run_dir / "stats.json", stats.to_json())
    with atomic_path(run_dir / "log.txt") as tmp:
        tmp.write_text("\n".join(lines) + "\n")
    write_json_atomic(run_dir / "record.json", record.to_json())
    return record


# ------------------------------------------------------------------ sweeps

@dataclass
class SweepSpec:
    """The grid's six axes; every other setting of a run is the same for all."""
    archs: list[str]
    variable_sets: list[str]
    m_steps: list[int]
    layers: list[int]
    dims: list[int]
    seeds: list[int]

    @staticmethod
    def from_json(d: dict) -> "SweepSpec":
        return SweepSpec(**dataclass_kwargs(SweepSpec, d, "config section 'sweep'"))


def enumerate_runs(sweep: SweepSpec, model_fields: dict | None = None,
                   **training) -> list[TrainConfig]:
    """Cartesian product of the grid, in deterministic order. Every run's
    model spec takes `model_fields` and its TrainConfig `training`; what
    they leave unset is the dataclass default. A model field that one of the
    architectures does not read, an empty axis (no run) and an axis that names
    one value twice (one run twice) are ConfigErrors."""
    model_fields = model_fields or {}
    spelled = dict(vars(sweep), variable_sets=[
        spell_variable_set(parse_variable_set(v)) for v in sweep.variable_sets])
    for axis, values in spelled.items():
        if not values:
            raise ConfigError(f"sweep axis {axis!r} is empty, so the sweep has no run")
        if len(set(values)) < len(values):
            raise ConfigError(f"sweep axis {axis!r} names one value twice in "
                              f"{getattr(sweep, axis)}, which would train one run twice")
    for arch in sweep.archs:
        unread = unread_fields(arch, model_fields)
        if unread:
            raise ConfigError(f"{arch} does not read the model fields {unread}")
    out = []
    for arch, vs_name, m, layers, dim, seed in itertools.product(
            sweep.archs, sweep.variable_sets, sweep.m_steps, sweep.layers,
            sweep.dims, sweep.seeds):
        vs = parse_variable_set(vs_name)
        spec = model_spec(arch, layers, dim, vs.n_prognostic,
                          n_forcing=len(vs.forcings), n_constant=len(vs.constants),
                          **model_fields)
        out.append(TrainConfig(model=spec, m_steps=m, seed=seed,
                               variable_set=vs_name, **training))
    return out


def _sweep_worker(cfg_json: dict, store_dir: str, run_dir: str) -> tuple[str, str]:
    """The run's status and, for "error", the traceback of the exception that
    ended it. An error writes no record.json, so a resumed sweep retrains the run."""
    try:
        record = run_training(TrainConfig.from_json(cfg_json), DatasetStore.open(store_dir),
                              run_dir)
    except Exception:  # one run's crash never kills the sweep
        return "error", traceback.format_exc().rstrip()
    return record.status, ""


def run_sweep(configs: list[TrainConfig], store_dir, root, jobs: int = 1,
              log=lambda s: None) -> dict:
    """Execute every run as share-nothing workers, at most `jobs` at once and
    no more than there are runs to do; resumable. Every config is checked
    against the store before the first run starts."""
    store = DatasetStore.open(store_dir)
    for cfg in configs:
        check_store(cfg, store)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    statuses: dict[str, str] = {}
    todo = []
    for cfg in configs:
        rid = run_id(cfg)
        rec_path = root / rid / "record.json"
        if rec_path.exists():
            statuses[rid] = read_json(rec_path, lambda doc: doc.get("status", "ok"))
            log(f"skip {rid} (completed: {statuses[rid]})")
        else:
            todo.append(cfg)

    def done(rid: str, status: str, trace: str) -> None:
        statuses[rid] = status
        log(f"run {rid}: {status}" + (f"\n{trace}" if trace else ""))

    workers = min(jobs, len(todo))
    if workers <= 1:
        for cfg in todo:
            rid = run_id(cfg)
            done(rid, *_sweep_worker(cfg.to_json(), str(store_dir), str(root / rid)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = {run_id(cfg): pool.submit(_sweep_worker, cfg.to_json(), str(store_dir),
                                             str(root / run_id(cfg))) for cfg in todo}
            for rid, fut in futs.items():
                done(rid, *fut.result())
    manifest = {"runs": [{"id": run_id(c), "status": statuses[run_id(c)],
                          "config": c.to_json()} for c in configs]}
    write_json_atomic(root / "sweep.json", manifest)
    return manifest
