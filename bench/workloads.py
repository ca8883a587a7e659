"""The benchmark's three workloads: train, rollout and score.

All use the README quick-start shape: grid 32x16, vars8 (8 prognostic
variables, tisr, 4 constants), L=2, D=32, M=2, B=32, lr 1e-3. Each is a
closed loop driven from one process: `run_op` is one operation, the only code
the benchmark times, and the next one starts when it returns. `check` tests
each operation's output and `final_errors` runs the once-per-run checks.

Every call into rsl goes through the module attribute at call time
(`rsl.train.train`, not a name imported here), so a traced run sees the
wrapped functions and an untraced one the originals.
"""

from __future__ import annotations

import json
import math
import shutil
from datetime import datetime
from pathlib import Path

import numpy as np

import rsl.data
import rsl.evaluate
import rsl.grid
import rsl.models
import rsl.train

ARCHS = ("sfno", "fcn", "climax")
GRID = (32, 16)
VARS = "vars8"
LAYERS, DIM, M_STEPS, BATCH, LR = 2, 32, 2, 32, 1e-3

TRAIN_DATES = (datetime(2006, 1, 1), datetime(2007, 12, 31))
# One train() call sees one batch: 8 days x 4 initial conditions = 32 samples.
SHORT_TRAIN = ("2006-01-01", "2006-01-08")
SHORT_VAL = ("2008-01-01", "2008-01-01")

ROLLOUT_START = datetime(2008, 1, 1)
ROLLOUT_STEPS = 60
ORACLE_STEPS = 8
# Largest |float32 rollout - float64 oracle| of a per-step global mean, in
# units of the variable's training std, over the first ORACLE_STEPS steps.
ORACLE_TOL = 1e-4

SCORE_START = datetime(2009, 1, 1)
SCORE_STEPS = 14608                    # the decade from SCORE_START, 6-hourly
SELF_SCORE_TOL = 1e-9


def derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, stream]).generate_state(1)[0])


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    years = 3
    setup_reps = 2       # set-ups per untraced run; setup_s is their median
    trace_cycles = 2     # cycles over `kinds` in each pass of a traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.world_dir = Path(workdir) / "world"
        self.first: dict[str, object] = {}

    def kind(self, i: int) -> str:
        return self.kinds[i % len(self.kinds)]

    def world(self) -> dict:
        return {"grid": "x".join(map(str, GRID)), "vars": VARS, "years": self.years,
                "start_year": 2006, "world_seed": derive_seed(self.seed, 0)}

    def setup(self) -> None:
        """World generation, its normalization, and what operations need."""
        self.store = rsl.data.generate_synthetic_climate(
            rsl.data.SyntheticConfig(seed=derive_seed(self.seed, 0), years=self.years,
                                     grid=rsl.grid.make_grid(*GRID),
                                     variable_set=rsl.data.variable_set(VARS)),
            self.world_dir)
        self.norm = rsl.data.compute_normalization(self.store, *TRAIN_DATES)
        self.weights = rsl.grid.area_weights(self.store.grid)
        self.prepare()

    def close(self) -> None:
        shutil.rmtree(self.world_dir, ignore_errors=True)

    def check(self, kind: str, result) -> list[str]:
        errors, signature = self.inspect(result)
        if kind not in self.first:
            self.first[kind] = signature
        elif signature != self.first[kind]:
            errors.append("repeat is not bit-identical to the first operation")
        return errors

    def final_errors(self) -> dict[str, list[str]]:
        return {}

    # Per workload: prepare(), run_op(i), inspect(result) -> (errors, signature);
    # train and rollout add work(kind), the work units in one operation.


def train_config(arch: str, seed: int) -> "rsl.train.TrainConfig":
    vs = rsl.data.variable_set(VARS)
    spec = rsl.models.model_spec(arch, LAYERS, DIM, vs.n_prognostic,
                                 n_forcing=len(vs.forcings), n_constant=len(vs.constants))
    return rsl.train.TrainConfig(
        model=spec, m_steps=M_STEPS, seed=seed, variable_set=VARS,
        train_start=SHORT_TRAIN[0], train_end=SHORT_TRAIN[1],
        val_start=SHORT_VAL[0], val_end=SHORT_VAL[1],
        batch_size=BATCH, lr_init=LR, epochs=1)


class TrainWorkload(Workload):
    """One op = one train() call, cycling sfno -> fcn -> climax, each
    architecture always with its own model seed."""
    name = "train"
    kinds = ARCHS

    def prepare(self):
        self.configs = {a: train_config(a, derive_seed(self.seed, 1 + i))
                        for i, a in enumerate(ARCHS)}
        self.samples = len(rsl.data.sample_index(
            rsl.data.parse_date(SHORT_TRAIN[0]), rsl.data.parse_date(SHORT_TRAIN[1]),
            M_STEPS, self.store.end))

    def run_op(self, i):
        return rsl.train.train(self.configs[self.kind(i)], self.store)

    def inspect(self, result):
        record = result[1].to_json()
        errors = [] if record["status"] == "ok" else [f"status {record['status']}"]
        losses = [e[k] for e in record["epochs"] for k in ("train_loss", "val_loss")]
        losses += [record["best_val"], record["persistence_val"]]
        if not losses or not all(math.isfinite(x) for x in losses):
            errors.append(f"non-finite or missing loss in {record['epochs']}")
        return errors, json.dumps(record, sort_keys=True)

    def work(self, kind):
        return self.samples


class RolloutWorkload(Workload):
    """One op = one rollout() at batch 1 from ROLLOUT_START, cycling the
    architectures; the weights come from a short train() of each in set-up."""
    name = "rollout"
    kinds = ARCHS
    trace_cycles = 3

    def prepare(self):
        store = self.store
        self.models, self.oracles, self.stats = {}, {}, {}
        for i, arch in enumerate(ARCHS):
            cfg = train_config(arch, derive_seed(self.seed, 1 + i))
            state, record, stats = rsl.train.train(cfg, store)
            if record.status != "ok":
                raise RuntimeError(f"set-up training of {arch} failed: {record.diagnostics}")
            oracle = rsl.models.build_model(cfg.model, store.grid, cfg.seed, dtype=np.float64)
            for k, p in state.params.items():
                oracle.params[k].data = p.data.astype(np.float64)
            self.models[arch], self.oracles[arch], self.stats[arch] = state, oracle, stats
        self.i0 = store.time_index(ROLLOUT_START)
        self.x0 = {a: np.stack([s.normalize(v, store.read_steps(v, [self.i0])[0])
                                for v in store.prognostic]).astype(np.float32)
                   for a, s in self.stats.items()}
        self.c = rsl.data.normalized_constants(store)

    def run_op(self, i):
        arch = self.kind(i)
        stats = self.stats[arch]
        provider = rsl.data.forcing_provider(self.store, stats)
        i0 = self.i0
        return rsl.evaluate.rollout(self.models[arch], self.x0[arch],
                                    lambda m: provider(i0 + m), self.c, ROLLOUT_STEPS,
                                    stats, self.weights, self.store.prognostic,
                                    start_time=ROLLOUT_START)

    def inspect(self, out):
        errors = []
        if not out.finite or out.count != ROLLOUT_STEPS:
            errors.append(f"rollout stopped: finite={out.finite} after {out.count} steps")
        gm = np.asarray(out.global_means, np.float64)
        return errors, (gm.tobytes(), out.mean.tobytes(), out.m2.tobytes())

    def final_errors(self):
        """The first ORACLE_STEPS per-step global means of each architecture's
        first rollout against a float64 model with the same weights."""
        out = {}
        w = self.weights.weights[None, :, None]
        c = self.c.astype(np.float64)
        for arch in ARCHS:
            if arch not in self.first:
                continue
            got = np.frombuffer(self.first[arch][0]).reshape(-1, len(self.store.prognostic))
            stats = self.stats[arch]
            sds = np.array([stats.values[v][1] for v in self.store.prognostic])[:, None, None]
            mus = np.array([stats.values[v][0] for v in self.store.prognostic])[:, None, None]
            provider = rsl.data.forcing_provider(self.store, stats)
            x = self.x0[arch].astype(np.float64)
            worst = 0.0
            for j in range(min(ORACLE_STEPS, len(got))):
                gm = ((x * sds + mus) * w).mean(axis=(1, 2))
                worst = max(worst, float(np.max(np.abs(gm - got[j]) / sds[:, 0, 0])))
                f = provider(self.i0 + j).astype(np.float64)
                x = x + rsl.models.model_forward(self.oracles[arch], x, f, c)
            out[arch] = [] if worst <= ORACLE_TOL else [
                f"float64 oracle differs by {worst:.3g} training stds (> {ORACLE_TOL})"]
        return out

    def work(self, kind):
        return ROLLOUT_STEPS


def window_moments(store, i0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Temporal mean and sum of squared deviations, (K, H, W) float64, of
    every prognostic variable over steps [i0, i0 + n)."""
    means, m2s = [], []
    for v in store.prognostic:
        block = store.read_range(v, i0, i0 + n).astype(np.float64)
        mean = block.mean(axis=0)
        means.append(mean)
        m2s.append(((block - mean) ** 2).sum(axis=0))
    return np.stack(means), np.stack(m2s)


class ScoreWorkload(Workload):
    """One op = one scored run as `rsl rollout` does it: a fresh store, then
    stability_score and climatology_baseline in both modes over the decade.
    The scored statistics are fixed in set-up, so no model runs."""
    name = "score"
    kinds = ("score",)
    years = 13
    setup_reps = 1       # a 13-year world takes about 20 s to generate
    trace_cycles = 3

    def prepare(self):
        store = self.store
        self.varset = store.varset
        i0 = store.time_index(TRAIN_DATES[0])
        self.train_steps = store.time_index(rsl.data.range_end(TRAIN_DATES[1])) - i0 + 1
        mean, m2 = window_moments(store, i0, self.train_steps)
        std = np.sqrt(m2 / self.train_steps)
        rng = np.random.default_rng(derive_seed(self.seed, 1))
        self.scored = rsl.evaluate.RolloutStats(
            variables=store.prognostic, grid=store.grid, count=SCORE_STEPS,
            mean=mean + 0.1 * std * rng.standard_normal(mean.shape),
            m2=std ** 2 * SCORE_STEPS)

    def run_op(self, i):
        store = rsl.data.DatasetStore.open(self.world_dir)
        reports = []
        for mode in ("mean", "std"):
            reports.append(rsl.evaluate.stability_score(
                self.scored, store, self.norm, self.weights, self.varset,
                SCORE_START, SCORE_STEPS, mode=mode))
            reports.append(rsl.evaluate.climatology_baseline(
                store, store, self.norm, self.weights, self.varset, TRAIN_DATES[0],
                self.train_steps, SCORE_START, SCORE_STEPS, mode=mode))
        return reports

    def inspect(self, reports):
        values = [r.aggregate for r in reports]
        values += [x for r in reports for pv in r.per_variable.values() for x in pv.values()]
        errors = [] if all(r.finite for r in reports) and all(map(math.isfinite, values)) \
            else ["non-finite score"]
        return errors, json.dumps([r.to_json() for r in reports], sort_keys=True)

    def final_errors(self):
        """The evaluation window's own climatology scores 0 against itself."""
        store = rsl.data.DatasetStore.open(self.world_dir)
        mean, m2 = window_moments(store, store.time_index(SCORE_START), SCORE_STEPS)
        own = rsl.evaluate.RolloutStats(variables=store.prognostic, grid=store.grid,
                                        count=SCORE_STEPS, mean=mean, m2=m2)
        errors = []
        for mode in ("mean", "std"):
            agg = rsl.evaluate.stability_score(own, store, self.norm, self.weights,
                                               self.varset, SCORE_START, SCORE_STEPS,
                                               mode=mode).aggregate
            if not agg <= SELF_SCORE_TOL:
                errors.append(f"self-score ({mode}) is {agg!r}, not 0 to round-off")
        return {"score": errors}


WORKLOADS = {w.name: w for w in (TrainWorkload, RolloutWorkload, ScoreWorkload)}
