"""Span tracing of the rsl layers, patched in from outside the package.

Every traced function is wrapped where its callers look it up (for example
`rsl.models.sht_forward_t`, `rsl.autodiff.gelu`, `DatasetStore.read_range`)
and restored when the `Tracer.installed` block ends. Spans are kept in memory
as [name, start, end, parent index, operation id] and written out once, when
the traced run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from pathlib import Path

import numpy as np

AUTODIFF_OPS = ("backward", "zero_grads", "tensor", "add", "sub", "mul", "scale",
                "matmul", "reshape", "transpose", "narrow", "concat", "sum_",
                "mean_", "lat_weighted_mean", "gelu", "softshrink", "softmax",
                "layer_norm", "rfft", "irfft", "rfft2", "irfft2")

# Span name -> every place a caller looks the function up, as
# "module:attribute" or "module:Class.attribute" under the rsl package.
SITES: dict[str, tuple[str, ...]] = {
    **{f"autodiff.{op}": (f"autodiff:{op}",) for op in AUTODIFF_OPS},
    "spectral.plan_sht": ("models:plan_sht", "data:plan_sht"),
    "spectral.sht_inverse": ("data:sht_inverse",),
    "spectral.sht_forward_t": ("models:sht_forward_t",),
    "spectral.sht_inverse_t": ("models:sht_inverse_t",),
    "models.build_model": ("models:build_model", "train:build_model"),
    "models.model_forward_t": ("models:model_forward_t", "train:model_forward_t"),
    "models.model_forward": ("models:model_forward", "evaluate:model_forward"),
    "models.sfno_block": ("models:sfno_block",),
    "models.afno_block": ("models:afno_block",),
    "models.climax_encode": ("models:climax_encode",),
    "models.climax_decode": ("models:climax_decode",),
    "train.train": ("train:train",),
    "train.multi_step_loss": ("train:multi_step_loss",),
    "train.persistence_loss": ("train:persistence_loss",),
    "train.clip_grad_norm": ("train:clip_grad_norm",),
    "train.adam_step": ("train:adam_step",),
    "data.generate_synthetic_climate": ("data:generate_synthetic_climate",),
    "data.compute_tisr": ("data:compute_tisr",),
    "data.compute_normalization": ("data:compute_normalization",
                                   "train:compute_normalization"),
    "data.load_batch": ("train:load_batch",),
    "data.normalized_constants": ("data:normalized_constants",),
    "data.DatasetStore.read_range": ("data:DatasetStore.read_range",),
    "data.DatasetStore.read_steps": ("data:DatasetStore.read_steps",),
    "evaluate.rollout": ("evaluate:rollout",),
    "evaluate.RolloutStats.update": ("evaluate:RolloutStats.update",),
    "evaluate.detect_blowup": ("evaluate:detect_blowup",),
    "evaluate.stability_score": ("evaluate:stability_score",),
    "evaluate.climatology_baseline": ("evaluate:climatology_baseline",),
}
# `data.forcing_provider` returns a closure; the closure is what gets traced.
PROVIDER_SITE = "data:forcing_provider"
PROVIDER_SPAN = "data.forcing_provider.call"
READS = ("data.DatasetStore.read_range", "data.DatasetStore.read_steps")

SPAN_NAMES = list(SITES) + [PROVIDER_SPAN]


def per_layer_spec() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric a traced run reports."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.bytes", "B") for name in READS]
    out += [("data.read.useful_frac", "ratio"), ("trace.overhead_frac", "ratio")]
    return out


def resolve(rsl_pkg, site: str):
    """(owner, attribute) for a "module:attr" or "module:Class.attr" site."""
    module, _, attr = site.partition(":")
    owner = getattr(rsl_pkg, module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """In-memory span recorder for one traced run (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, op]
        self.op = 0                        # id of the operation now running
        self.read_bytes = dict.fromkeys(READS, 0)
        self._marks: dict[tuple, list] = {}   # (op, store, var) -> [seen, bytes/step]
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        traced.bench_traced = True
        return traced

    def _count_read(self, name: str, steps):
        def after(args, out):
            store, var = args[0], args[1]
            self.read_bytes[name] += out.nbytes
            key = (self.op, id(store), var)
            if key not in self._marks:
                per_step = out.nbytes // max(len(out), 1)
                self._marks[key] = [np.zeros(store.n_steps, bool), per_step]
            self._marks[key][0][steps(args, out)] = True
        return after

    def useful_frac(self) -> float:
        """Distinct (variable, step) bytes per operation and store, over bytes returned."""
        returned = sum(self.read_bytes.values())
        distinct = sum(int(seen.sum()) * per_step for seen, per_step in self._marks.values())
        return distinct / returned if returned else 0.0

    @contextlib.contextmanager
    def installed(self, rsl_pkg):
        """Patch every traced site for the duration of the block."""
        hooks = {
            "data.DatasetStore.read_range": self._count_read(
                "data.DatasetStore.read_range",
                lambda a, out: slice(a[2], a[2] + len(out))),
            "data.DatasetStore.read_steps": self._count_read(
                "data.DatasetStore.read_steps", lambda a, out: np.asarray(a[2])),
        }
        try:
            for name, sites in SITES.items():
                for site in sites:
                    owner, attr = resolve(rsl_pkg, site)
                    self._patch(owner, attr, self.wrap(name, vars(owner)[attr], hooks.get(name)))
            owner, attr = resolve(rsl_pkg, PROVIDER_SITE)
            provider = vars(owner)[attr]

            @functools.wraps(provider)
            def traced_provider(*args, **kwargs):
                return self.wrap(PROVIDER_SPAN, provider(*args, **kwargs))
            traced_provider.bench_traced = True
            self._patch(owner, attr, traced_provider)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def write(self, path) -> None:
        """Write every span as CSV, times in seconds from the first span."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "parent", "op", "name", "start_s", "end_s"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                w.writerow([i, parent, op, name, f"{start - t0:.9f}", f"{end - t0:.9f}"])


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds); self time is a span's duration minus the
    time its direct child spans cover. Spans come from one thread, so the
    children of a span never overlap one another."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, start, end, _, _), cov in zip(spans, covered):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - cov)
    return out


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric, in `per_layer_spec` order."""
    times = self_times(tracer.spans)
    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_s = times.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for name in READS:
        values[f"{name}.bytes"] = tracer.read_bytes[name]
    values["data.read.useful_frac"] = tracer.useful_frac()
    values["trace.overhead_frac"] = overhead_frac
    return values
