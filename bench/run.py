"""Benchmark of rsl's training, rollout and scoring loop.

    python3 bench/run.py [--workload train|rollout|score] [--seed N]
                         [--seconds S] [--trace 0|1]

With --workload, runs that workload in this process and prints, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json from an untraced run (--trace 0), or its
per-layer metrics from a traced run (--trace 1). An untraced run measures
operations for --seconds; a traced run measures a fixed amount of work (one
set-up and a fixed number of operation cycles), so its call counts repeat
exactly. Details, with the environment record, go to
bench/out/<workload>-trace<T>-seed<N>.json.

Without --workload, runs every workload twice, untraced and then traced, each
in a process of its own, prints every metric and writes bench/out/results.json.

The program under test is the rsl package in src/ of the checkout this file
sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"

# End-to-end metrics of an untraced run, as listed in BENCHMARK.json.
E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Per-architecture rates the untraced run prints: work units of one operation
# over the median operation time, as (name prefix, unit).
RATE_NAMES = {"train": ("train_samples_per_s", "samples/s"),
              "rollout": ("rollout_steps_per_s", "steps/s")}


def import_program():
    """Import rsl from src/ of this checkout, or return None."""
    src = (ROOT / "src").resolve()
    if not (src / "rsl" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import rsl
    if not Path(rsl.__file__).resolve().is_relative_to(src):
        return None
    return rsl


def run_ops(wl, *, seconds=None, count=None, tracer=None) -> list[dict]:
    """Closed loop of operations, in whole cycles over the workload's kinds,
    until `count` operations ran or `seconds` passed."""
    ops = []
    deadline = time.perf_counter() + (seconds or 0)
    while True:
        i = len(ops)
        kind = wl.kind(i)
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            result = wl.run_op(i)
            wall = time.perf_counter() - t0
            errors = wl.check(kind, result)
        except Exception as exc:  # an operation that raises counts as failed
            wall = time.perf_counter() - t0
            errors = [f"{type(exc).__name__}: {exc}"]
        ops.append({"kind": kind, "wall_s": wall, "errors": errors})
        if len(ops) % len(wl.kinds) == 0 and (
                len(ops) >= count if count else time.perf_counter() >= deadline):
            return ops


def apply_final_checks(wl, ops: list[dict]) -> None:
    """A failed once-per-run check fails every operation of its kind."""
    for kind, errors in wl.final_errors().items():
        for op in ops:
            if op["kind"] == kind:
                op["errors"] += errors


def kind_medians(summary, ops) -> dict[str, dict]:
    out = {}
    for kind in dict.fromkeys(op["kind"] for op in ops):
        out[kind] = summary.summarize([op["wall_s"] for op in ops if op["kind"] == kind])
    return out


def untraced(wl, args, summary) -> dict:
    setup_times = []
    for _ in range(wl.setup_reps):
        wl.close()
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    warmup = run_ops(wl, count=len(wl.kinds))
    ops = run_ops(wl, seconds=args.seconds)
    apply_final_checks(wl, warmup + ops)
    kinds = kind_medians(summary, ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"op_s": summary.geomean([k["median"] for k in kinds.values()]),
              "setup_s": statistics.median(setup_times), "peak_rss_mb": rss_mb}
    metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    named = {"setup_s": (values["setup_s"], "s", f"median of {len(setup_times)} set-ups")}
    for kind, k in kinds.items():
        detail = f"median of {k['n']} ops" + (
            f", p{k['tail_p']:g} op {k['tail']:.4g} s" if k["tail_p"] else ", no tail (<20 ops)")
        if wl.name in RATE_NAMES:
            name, unit = RATE_NAMES[wl.name]
            named[f"{name}.{kind}"] = (wl.work(kind) / k["median"], unit, detail)
        else:
            named["score_s"] = (k["median"], "s", detail)
    named["peak_rss_mb"] = (rss_mb, "MiB", "ru_maxrss of this process")
    return {"ops": warmup + ops, "setup_times_s": setup_times, "kinds": kinds,
            "metrics": metrics, "named": named}


def traced(wl, args, rsl, summary, tracer_mod) -> dict:
    """Traced set-up, an untimed warm-up cycle, then cycles of operations
    alternating untraced and traced, so that both see the same machine state."""
    tr = tracer_mod.Tracer()
    with tr.installed(rsl):
        wl.setup()
    warmup = run_ops(wl, count=len(wl.kinds))
    plain, spanned = [], []
    for _ in range(wl.trace_cycles):
        plain += run_ops(wl, count=len(wl.kinds))
        with tr.installed(rsl):
            spanned += run_ops(wl, count=len(wl.kinds), tracer=tr)
    ops = warmup + plain + spanned
    apply_final_checks(wl, ops)
    before, after = kind_medians(summary, plain), kind_medians(summary, spanned)
    overhead = summary.geomean([after[k]["median"] / before[k]["median"] for k in before]) - 1
    trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.csv"
    tr.write(trace_path)
    values = tracer_mod.layer_metrics(tr, overhead)
    units = dict(tracer_mod.per_layer_spec())
    return {"ops": ops, "kinds_untraced": before, "kinds_traced": after,
            "spans": len(tr.spans), "trace_file": str(trace_path.relative_to(ROOT)),
            "metrics": {k: (v, units[k]) for k, v in values.items()}}


def run_one(args) -> int:
    rsl = import_program()
    if rsl is None:
        print(f"the rsl package is not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import summary
    import tracer as tracer_mod
    import workloads

    env = summary.environment()
    steal0 = summary.steal_seconds()
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            res = traced(wl, args, rsl, summary, tracer_mod)
        else:
            res = untraced(wl, args, summary)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    steal1 = summary.steal_seconds()
    env["cpu_steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0

    ops = res.pop("ops")
    failed = [op for op in ops if op["errors"]]
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": env, "world": wl.world(),
           "attempted": len(ops), "failed": len(failed),
           "failed_frac": len(failed) / len(ops),
           "errors": sorted({e for op in failed for e in op["errors"]}),
           "op_walls_s": [(op["kind"], op["wall_s"]) for op in ops], **res}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json", "w") as f:
        json.dump(doc, f, indent=1)

    print(f"env {json.dumps(env)}")
    print(f"world {json.dumps(doc['world'])}")
    for name, (value, unit, detail) in res.get("named", {}).items():
        print(f"{args.workload:8s} {name:32s} {value:12.5g} {unit:10s} {detail}")
    print(f"{args.workload:8s} {'failed_frac':32s} {doc['failed_frac']:12.5g} {'ratio':10s} "
          f"{len(failed)} of {len(ops)} ops")
    for e in doc["errors"]:
        print(f"{args.workload:8s} FAILED CHECK: {e}")
    if args.trace:
        for name in ("trace.overhead_frac", "data.read.useful_frac"):
            print(f"{args.workload:8s} {name:32s} {res['metrics'][name][0]:12.5g} ratio")
        print(f"{args.workload:8s} {res['spans']} spans written to {res['trace_file']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in res["metrics"].items()}}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    results, status = {}, 0
    for name in ("train", "rollout", "score"):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                return proc.returncode
            status |= not json.loads(lines[-1])["correct"]
            with open(OUT / f"{name}-trace{trace}-seed{args.seed}.json") as f:
                results[f"{name}.trace{trace}"] = json.load(f)
    with open(OUT / "results.json", "w") as f:
        json.dump(results, f, indent=1)
    print(f"all workloads written to {(OUT / 'results.json').relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("train", "rollout", "score"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
