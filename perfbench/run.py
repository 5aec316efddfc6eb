"""Benchmark of the chemostat command line, closed loop with one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each op is one in-process call of ``chemostat.cli.main(argv)`` on a model
file generated from the seed (see ``workloads.py``); the next op starts when
the previous one returns. A run

1. writes the generated model files (untimed): ``POOL[workload]`` distinct
   models per run;
2. sets up: a fresh import of ``chemostat`` plus ``model_from_dict`` and
   ``normalize`` of every generated model;
3. runs every model once, checking its outputs against the workload's oracle
   after its clock stops, however long that takes; then replays the models
   in order until the summed op latency reaches ``--seconds`` (and at least
   once), requiring outputs byte-identical to the model's first run. Before
   each op the ``break_even`` cache is cleared, so a replay does no less
   work than the first run, as with separate CLI processes. The run sets up
   again at even steps of op latency, so that ``setup_s``, the median of
   ``SETUP_REPEATS`` set-ups, samples the same stretch of machine load as
   the ops rather than one moment of it;
4. sets up a last time.

An op fails when ``cli.main`` raises, returns exit code 1 or 4, or its
outputs fail their check. ``attempted`` and ``failed`` count the oracle
checks of the first runs, so they are the same on every run of a seed;
``correct`` says whether every replay reproduced its first run. Failed
models are logged with their inputs under ``.perfbench_out/`` and the run
goes on.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the ops run with spans and
counters installed (``tracing.py``), single calls are probed untraced, and the
JSON carries the per-layer metrics instead. ``--workload all`` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from tracing import ratio  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 16  # one before the timed phase, one after it, the rest spread over it
# Distinct models per run, each checked once by its oracle and then replayed.
# On a 2-vCPU VM whose speed drifts by a third, a first pass over them takes
# from about half to nearly all of a 25-second run (analyze 36 x 0.4-0.5 s,
# sweep 6 x 2.2-4 s, simulate 36 x 0.35-0.55 s, cycles 5 x 3-5 s); each size
# is a whole period of its generator's rotation.
POOL = {"analyze": 36, "sweep": 6, "simulate": 36, "cycles": 5}
CHEM_MODULES = ("model", "scalarfn", "expr", "roots", "rk45", "equilibria",
                "certificates", "dynamics", "cycles", "cli")
FAIL_EXIT_CODES = (1, 4)

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Set-up

def import_chemostat() -> dict:
    """Import chemostat afresh from the checkout's ``src`` directory."""
    for name in [n for n in sys.modules if n == "chemostat" or n.startswith("chemostat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"chemostat.{m}") for m in CHEM_MODULES}
    mods["chemostat"] = importlib.import_module("chemostat")
    return mods


def setup_once(pool_models: list[dict], keep: bool = True) -> tuple[float, dict]:
    """Time one set-up from a collected heap. With ``keep=False`` the modules
    in use before it are put back, so ops go on with the same (and, in a
    traced run, instrumented) module objects."""
    saved = {n: m for n, m in sys.modules.items()
             if n == "chemostat" or n.startswith("chemostat.")}
    gc.collect()
    t0 = time.perf_counter()
    mods = import_chemostat()
    model = mods["model"]
    for data in pool_models:
        model.normalize(model.model_from_dict(data))
    dt = time.perf_counter() - t0
    if not keep:
        sys.modules.update(saved)
    return dt, mods


# ---------------------------------------------------------------------------
# Ops

class Runner:
    """Runs ops one after another and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path, mods: dict):
        self.seed = seed
        self.work = work
        self.mods = mods
        self.gen = workloads.GENERATORS[workload]
        self.check = workloads.CHECKS[workload]
        self.ops: dict[int, workloads.Op] = {}
        (work / "models").mkdir(parents=True, exist_ok=True)

    def op(self, k: int) -> workloads.Op:
        if k not in self.ops:
            op = self.gen(self.seed, k)
            with open(self.model_path(k), "w", encoding="utf-8") as fh:
                json.dump(op.model, fh, indent=1)
            self.ops[k] = op
        return self.ops[k]

    def model_path(self, k: int) -> str:
        return str(self.work / "models" / f"op{k}.json")

    def call(self, k: int, out_dir: Path, wrap=None) -> tuple[int | None, float, str]:
        """Run op ``k`` into ``out_dir``; returns (exit code or None, seconds,
        captured output including any traceback)."""
        if out_dir.exists():
            shutil.rmtree(out_dir)
        argv = self.op(k).argv(self.model_path(k), str(out_dir))
        main = self.mods["cli"].main
        buf = io.StringIO()
        rc = None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                rc = wrap(lambda: main(argv)) if wrap else main(argv)
            except SystemExit as e:  # argparse rejects its arguments this way
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # keep the run going; the op counts as failed
                buf.write(traceback.format_exc())
            dt = time.perf_counter() - t0
        return rc, dt, buf.getvalue()

    def verify(self, k: int, rc, out_dir: Path, output: str) -> tuple[list[str], dict]:
        if rc is None:
            return [f"cli.main raised:\n{output}"], {}
        if rc in FAIL_EXIT_CODES:
            return [f"exit code {rc}: {output.strip()}"], {}
        try:
            return self.check(self.op(k), rc, str(out_dir), self.mods["chemostat"])
        except Exception:
            return [f"output check raised:\n{traceback.format_exc()}"], {}

    def log_failure(self, k: int, problems: list[str]) -> None:
        op = self.op(k)
        (self.work / "failures").mkdir(exist_ok=True)
        with open(self.work / "failures" / f"op{k}.json", "w", encoding="utf-8") as fh:
            json.dump({"argv": op.argv(self.model_path(k), "OUT"), "model": op.model,
                       "meta": op.meta, "problems": problems}, fh, indent=1)
        print(f"perfbench: op {k} failed: {problems[0].splitlines()[0]} "
              f"(inputs in {self.work / 'failures' / f'op{k}.json'})", file=sys.stderr)


def tree_digest(path: Path) -> tuple:
    """(file name, SHA-256) of every output file; () when none was written."""
    if not path.exists():
        return ()
    return tuple((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                 for p in sorted(path.iterdir()))


# ---------------------------------------------------------------------------
# Statistics

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it,
    as (value, percentile, samples beyond). Below 21 samples that percentile
    would not lie above the median, so the maximum is reported (p100, none
    beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


# ---------------------------------------------------------------------------
# Probes

PROBE_METRICS = {"scalarfn.value_ns": "ns", "scalarfn.dual_ns": "ns",
                 "expr.value_ns": "ns", "expr.dual_ns": "ns", "model.rhs_ns": "ns",
                 "rk45.step_us": "us", "model.break_even_cold_ms": "ms",
                 "cycles.return_map_ms_each": "ms"}


def per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median seconds per call of ``fn()`` over ``repeats`` batches."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _leaf_fns(fn, shapes):
    """Yield ``fn`` and every ScalarFn nested inside it."""
    yield fn
    for child in (getattr(fn, a, None) for a in ("num", "den", "left", "right")):
        if isinstance(child, shapes):
            yield from _leaf_fns(child, shapes)


def probes(runner: Runner, op_ids: list[int]) -> dict[str, float]:
    """Single public calls timed untraced on this run's own models. A probe
    whose subject does not occur in the workload reports 0."""
    mods = runner.mods
    mdl, sfn = mods["model"], mods["scalarfn"]
    models = [mdl.normalize(mdl.model_from_dict(d))
              for k in op_ids[:16] for d in runner.op(k).setup_models()[:1]]
    first = models[0]
    out = dict.fromkeys(PROBE_METRICS, 0.0)
    growth = first.species[0].growth
    out["scalarfn.value_ns"] = 1e9 * per_call(lambda: growth(0.3), 2000)
    out["scalarfn.dual_ns"] = 1e9 * per_call(lambda: growth.eval_dual(0.3), 2000)
    exprs = [f for m in models for sp in m.species for top in (sp.growth, sp.uptake)
             for f in _leaf_fns(top, sfn.ScalarFn) if isinstance(f, sfn.ExprFn)]
    if exprs:
        e = exprs[0]
        out["expr.value_ns"] = 1e9 * per_call(lambda: e(0.3), 2000)
        out["expr.dual_ns"] = 1e9 * per_call(lambda: e.eval_dual(0.3), 2000)
    rhs = mdl.vector_field(first)
    y = [0.3] + [0.1] * first.n_species
    out["model.rhs_ns"] = 1e9 * per_call(lambda: rhs(0.0, y), 2000)
    step_times = []
    for _ in range(5):
        dp = mods["rk45"].DormandPrince54(rhs, 0.0, [0.5] + [0.1] * first.n_species)
        t0 = time.perf_counter()
        while dp.step(50.0):
            pass
        step_times.append((time.perf_counter() - t0) / dp.n_accepted)
    out["rk45.step_us"] = 1e6 * statistics.median(step_times)
    cold = getattr(mdl.break_even, "__wrapped__", mdl.break_even)
    out["model.break_even_cold_ms"] = 1e3 * per_call(lambda: cold(growth), 1)
    if first.n_species == 1:
        x = mods["cycles"].landmarks(first.species[0]).x_star * 1.5
        out["cycles.return_map_ms_each"] = 1e3 * per_call(
            lambda: mods["cycles"].return_map(first, x), 1, repeats=3)
    return out


# ---------------------------------------------------------------------------
# One workload

def cache_counts(fn) -> tuple[int, int]:
    """(hits, misses) so far of an ``lru_cache`` function; (0, 0) without one."""
    info = getattr(fn, "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    runner = Runner(workload, seed, work, {})
    pool = POOL[workload]
    pool_models = [d for i in range(pool) for d in runner.op(i).setup_models()]

    dt, runner.mods = setup_once(pool_models)
    setups = [dt]
    threads = 1
    if workload == "sweep":
        threads = len(os.sched_getaffinity(0))
        os.environ["CHEMOSTAT_THREADS"] = str(threads)
    break_even = runner.mods["model"].break_even
    clear_cache = getattr(break_even, "cache_clear", lambda: None)
    tracer = tracing.Tracer(runner.mods) if trace else None

    if tracer:
        tracer.install()
    latencies, failed, props, layer, per_op, pairs = [], [], [], [], [], []
    digests, mismatched = [], []
    cache_hits = cache_misses = 0
    out_dir = work / "out" / "op"
    spent, k = 0.0, 0
    # every model once, then replays until --seconds, at least one of them
    while k <= pool or spent < seconds:
        i = k % pool
        clear_cache()
        if tracer:
            counts0 = tracer.snapshot()
            first_span = len(tracer.spans)
            rc, dt, output = runner.call(i, out_dir, wrap=lambda f, k=k: tracer.run_op(k, f))
            counts = {n: c - counts0.get(n, 0) for n, c in tracer.snapshot().items()}
            cache = cache_counts(break_even)
            size = sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.exists() else 0
            layer.append(tracing.op_layer_metrics(tracer.spans[first_span:], counts, cache,
                                                  threads, size, workload == "sweep"))
            # tracing overhead from traced/untraced pairs over an eighth of the run
            if sum(t for t, _ in pairs) < seconds / 8:
                pairs.append((dt, replay_untraced(runner, tracer, i, clear_cache)))
        else:
            rc, dt, output = runner.call(i, out_dir)
            cache = cache_counts(break_even)
        cache_hits += cache[0]
        cache_misses += cache[1]
        spent += dt
        latencies.append(dt)
        digest = (rc, tree_digest(out_dir))
        problems = []
        if k < pool:
            problems, seen = runner.verify(i, rc, out_dir, output)
            props.append(seen)
            digests.append(digest)
            if problems:
                failed.append(i)
                runner.log_failure(i, problems)
        elif digest != digests[i]:
            mismatched.append(k)
            print(f"perfbench: op {k}, a replay of model {i}, did not reproduce its "
                  "first run's exit code and outputs byte for byte", file=sys.stderr)
        per_op.append({"op": k, "model": i, "class": runner.op(i).meta.get("class"),
                       "ms": 1000.0 * dt, "failed": bool(problems)})
        shutil.rmtree(out_dir, ignore_errors=True)
        k += 1
        # set-ups 2 .. SETUP_REPEATS-1 at even steps of the timed phase
        step = seconds / (SETUP_REPEATS - 1)
        while len(setups) < SETUP_REPEATS - 1 and spent >= len(setups) * step:
            setups.append(setup_once(pool_models, keep=False)[0])
    n = len(latencies)

    result = {"workload": workload, "seed": seed, "trace": trace, "ops": n,
              "models": pool, "failed": len(failed), "failed_models": failed,
              "spent_s": spent, "replays": n - pool, "mismatched_replays": mismatched}
    if tracer:
        tracer.uninstall()
        tracer.write(str(work / "spans.jsonl"))
        traced_s, untraced_s = (sum(col) for col in zip(*pairs))
        result["overhead"] = {
            "ops": len(pairs), "traced_s": traced_s, "untraced_s": untraced_s,
            "per_op_ms": 1000.0 * (traced_s - untraced_s) / len(pairs),
            "ratio": ratio(traced_s - untraced_s, untraced_s)}

    while len(setups) < SETUP_REPEATS:
        dt, runner.mods = setup_once(pool_models)
        setups.append(dt)

    tail_ms, tail_pct, beyond = tail(latencies)
    result["e2e"] = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / spent,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["fail_frac"] = len(failed) / pool
    result["tail_pct"], result["tail_beyond"] = tail_pct, beyond
    result["setups"] = setups
    result["pool_models"] = len(pool_models)
    result["inputs"] = input_properties(workload, props, cache_hits, cache_misses)
    if tracer:
        layer_metrics = {name: statistics.median(op[name] for op in layer)
                         for name in layer[0]}
        # ratios over the whole run: a class that occurs in one model of five,
        # such as the no-return scans of cycles, would have a median of 0
        layer_metrics.update(tracing.ratio_metrics(tracer.snapshot(),
                                                   (cache_hits, cache_misses)))
        # evaluation counts exist only when the counters are installed
        result["inputs"]["expr_eval_share"] = layer_metrics["expr.eval_share"]
        layer_metrics.update(probes(runner, list(range(pool))))
        layer_metrics["trace.overhead_ms"] = result["overhead"]["per_op_ms"]
        layer_metrics["trace.overhead_ratio"] = result["overhead"]["ratio"]
        result["layers"] = layer_metrics
    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "models", ignore_errors=True)
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, per_op=per_op), fh, indent=1)
    return result


def replay_untraced(runner: Runner, tracer: tracing.Tracer, i: int, clear_cache) -> float:
    """Rerun model ``i`` with tracing removed, right after its traced run, so
    both see the same machine load and start with a cold break-even cache."""
    tracer.uninstall()
    clear_cache()
    _, dt, _ = runner.call(i, runner.work / "out" / "replay")
    tracer.install()
    return dt


def input_properties(workload: str, props: list[dict], hits: int, misses: int) -> dict:
    """Input properties a later performance claim may depend on."""
    out = {"break_even_cache_hit_share": ratio(hits, hits + misses)}
    if workload == "analyze":
        verdicts = [p["verdict"] for p in props if "verdict" in p]
        out["verdicts"] = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    if workload == "simulate":
        out["lyapunov_written_share"] = ratio(
            sum(1 for p in props if p.get("lyapunov_written")), len(props))
    if workload == "cycles":
        checked = [p for p in props if "fixed_points" in p]
        out["models_with_cycle_share"] = ratio(sum(p["fixed_points"] > 0 for p in checked),
                                               len(checked))
        # fixed points found per regime, {class: {count: models}}, so a run
        # shows whether each regime gives the cycles it is named for
        by_class: dict = {}
        for p in checked:
            counts = by_class.setdefault(p["class"], {})
            counts[p["fixed_points"]] = counts.get(p["fixed_points"], 0) + 1
        out["fixed_points_by_class"] = by_class
        out["no_return_point_share"] = ratio(sum(p["no_return_points"] for p in checked),
                                             sum(p["grid_points"] for p in checked))
    return out


# ---------------------------------------------------------------------------
# Reporting

def report(result: dict) -> dict:
    """Print one workload's human-readable lines; return the JSON metrics."""
    w, e = result["workload"], result["e2e"]
    n = result["ops"]
    print(f"== {w}: seed {result['seed']}, {n} ops in {result['spent_s']:.2f} s "
          f"(one client, closed loop), trace {int(result['trace'])}")
    print(f"  setup_s      {e['setup_s']:.4f} s    median of {len(result['setups'])} "
          f"set-ups (import + load/normalize {result['pool_models']} models)")
    print(f"  ops_per_s    {e['ops_per_s']:.4f} 1/s")
    print(f"  op_p50_ms    {e['op_p50_ms']:.2f} ms   n={n}")
    print(f"  op_tail_ms   {e['op_tail_ms']:.2f} ms   p{result['tail_pct']:.1f}, "
          f"{result['tail_beyond']} of {n} samples beyond")
    print(f"  fail_frac    {result['fail_frac']:.4f}      {result['failed']} of "
          f"{result['models']} models failed their oracle {result['failed_models']}")
    print(f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MB")
    print(f"  checks: {result['models'] - result['failed']} of {result['models']} models "
          f"passed their oracle; {result['replays'] - len(result['mismatched_replays'])} "
          f"of {result['replays']} replays byte-identical to their first run")
    print(f"  inputs: {json.dumps(result['inputs'], sort_keys=True)}")
    if not result["trace"]:
        return {name: {"value": e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    o = result["overhead"]
    print(f"  tracing overhead: {o['per_op_ms']:.2f} ms per op "
          f"({100 * o['ratio']:.1f}%; {o['ops']} ops: traced {o['traced_s']:.3f} s, "
          f"untraced {o['untraced_s']:.3f} s)")
    metrics = {}
    for name, value in sorted(result["layers"].items()):
        unit = layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:36s} {value:14.4f} {unit}")
    return metrics


def layer_unit(name: str) -> str:
    if name in PROBE_METRICS:
        return PROBE_METRICS[name]
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Run every workload in its own process and print them together."""
    rows, correct, attempted, failed = {}, True, 0, 0
    for w in workloads.GENERATORS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {w} exited with code {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        rows[w] = last
    if not args.trace:
        print("\nworkload   " + "  ".join(f"{m:>12s}" for m in [*E2E_UNITS, "fail_frac"]))
        for w, last in rows.items():
            values = [last["metrics"][name]["value"] for name in E2E_UNITS]
            values.append(last["failed"] / last["attempted"])
            print(f"{w:10s} " + "  ".join(f"{v:12.4f}" for v in values))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {f"{w}.{name}": v for w, last in rows.items()
                                  for name, v in last["metrics"].items()}}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "chemostat" / "__init__.py").is_file():
        fail(f"no chemostat sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report(result)
    print(json.dumps({"correct": not result["mismatched_replays"],
                      "attempted": result["models"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
