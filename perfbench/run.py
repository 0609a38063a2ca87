"""Benchmark of the ondemand_pricing package.

    python3 perfbench/run.py --workload solve-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs one seeded workload (or, with `all`, each workload in its own process)
from the root of a source checkout, importing the package from `src/`. The
process is single-threaded: BLAS is pinned to one thread before numpy loads.

A run is a closed loop of whole rounds: one op starts when the previous one
and its checks are done, and rounds repeat until `--seconds` have passed and
at least 100 ops have run. Every op's output is checked against an oracle
(see workloads.py). The last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

- `--trace 0`: the end-to-end metrics, with no wrapper installed;
- `--trace 1`: the per-layer metrics. The traced run runs a fixed number of
  rounds twice, untraced then traced, so its counts repeat exactly for a
  seed and the difference between the two passes is the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100          # so that p90 has at least 10 samples beyond it
SETUP_REPEATS = 3

# End-to-end timings are reported at a reference interpreter speed. On a
# shared host the CPU speed swings by +-20% within seconds and drifts over
# minutes, moving every timing of a run with it. A fixed pure-Python kernel,
# timed between ops at least every CALIBRATE_EVERY_S, measures that speed;
# each op's time is multiplied by REFERENCE_KERNEL_S over the kernel time
# interpolated at the op. The raw figures are printed beside the scaled ones.
CALIBRATE_EVERY_S = 0.1
KERNEL_LOOPS = 30_000
REFERENCE_KERNEL_S = 2.5e-3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ondemand_pricing; "
    "print(time.perf_counter() - t)"
)


MODULES = ("errors", "model", "solver", "queues", "competition", "simulate", "config", "cli")


def _import_package():
    """Import the package from the checkout. Returns its modules by name (the
    package namespace shadows the `simulate` module with the function) and
    the time the package import took."""
    if not (SRC / "ondemand_pricing" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ondemand_pricing  # noqa: F401

    elapsed = time.perf_counter() - start
    modules = {name: importlib.import_module(f"ondemand_pricing.{name}") for name in MODULES}
    return types.SimpleNamespace(**modules), elapsed


def _import_probe() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def _kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_LOOPS):
        acc += (i % 7) * 0.5
    return acc


class Speed:
    """Kernel timings taken through a run."""

    def __init__(self):
        self.times: list[float] = []   # when each kernel timing ended
        self.kernel: list[float] = []  # how long the kernel took

    def tick(self) -> None:
        """Time the kernel if the last timing is older than CALIBRATE_EVERY_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
            self.times.append(end)
            self.kernel.append(end - start)

    def scaled(self, seconds: float, when: float) -> float:
        """`seconds` measured around time `when`, at the reference speed: the
        kernel time at `when` is interpolated between the timings around it."""
        i = bisect.bisect_right(self.times, when)
        if i == 0 or i == len(self.times):
            kernel = self.kernel[min(i, len(self.kernel) - 1)]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            k0, k1 = self.kernel[i - 1], self.kernel[i]
            kernel = k0 + (k1 - k0) * (when - t0) / (t1 - t0)
        return seconds * REFERENCE_KERNEL_S / kernel


class Tally:
    """Per-op outcomes of a run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.when: list[float] = []  # midpoint of each op's run
        self.simulating: list[bool] = []  # whether the op returned simulated arrivals
        self.attempted = 0
        self.failed: list[str] = []
        self.wrong: list[str] = []
        self.gate_misses = 0
        self.events = 0
        self.output_bytes = 0
        self.exit_codes: dict[str, int] = {}

    def add(self, label: str, out, when: float) -> None:
        self.attempted += 1
        self.latencies.append(out.latency_s)
        self.when.append(when)
        self.simulating.append(out.events > 0)
        if out.failed:
            self.failed.append(f"{label}: {out.failed}")
        if out.wrong:
            self.wrong.append(f"{label}: {out.wrong}")
        self.gate_misses += out.gate_misses
        self.events += out.events
        self.output_bytes += out.output_bytes
        if out.exit_code is not None:
            key = str(out.exit_code)
            self.exit_codes[key] = self.exit_codes.get(key, 0) + 1


def _label(rnd: int, i: int, spec: dict) -> str:
    extra = " ".join(spec["argv"][:3]) if spec["kind"] == "cli" else spec.get("scenario", "")
    return f"round {rnd} op {i} {spec['kind']} {extra}".rstrip()


def _run_rounds(ctx, inputs, seed: int, rounds, tally: Tally, digests: list | None,
                speed: Speed, deadline: float | None = None, tracer=None) -> int:
    """Run rounds in order; with a deadline, keep going past `rounds` until
    it passes. Returns the number of rounds run."""
    rnd = 0
    op_id = 0
    while rnd < rounds or (deadline is not None and time.perf_counter() < deadline):
        for i, spec in enumerate(inputs.round_ops(ctx.workload, seed, rnd)):
            speed.tick()
            if tracer is not None:
                tracer.op_id = op_id
            start = time.perf_counter()
            out = ctx.run(spec)
            op_id += 1
            tally.add(_label(rnd, i, spec), out, (start + time.perf_counter()) / 2.0)
            if digests is not None and rnd == 0:
                digests.append(repr(out.digest))
        rnd += 1
    return rnd


def _reference_digest(workload: str, seed: int) -> str | None:
    entries = json.loads((HERE / "results.json").read_text())["entries"]
    return entries[0]["digests"][workload].get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    P, first_import = _import_package()
    import workloads  # after the package, so that its numpy import is timed with it

    env = metrics.environment(ROOT)
    speed = Speed()
    speed.tick()
    import_samples = [(first_import, 0.0)]  # (seconds, when)
    for _ in range(SETUP_REPEATS - 1):
        start = time.perf_counter()
        import_samples.append((_import_probe(), (start + time.perf_counter()) / 2.0))
        speed.tick()
    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload}-{os.getpid()}"
    regularity = P.model.regularity_check  # an lru_cache: hits and misses are read from it

    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            _clear(regularity)  # every set-up is cold, as in a fresh process
            speed.tick()
            start = time.perf_counter()
            ctx = workloads.Context(P, workload, seed, ROOT, workdir)
            ctx.prepare()
            first_op = inputs.warmup_op(workload, seed)
            ctx.run(first_op)
            end = time.perf_counter()
            setup_samples.append((end - start, (start + end) / 2.0))
        min_rounds = math.ceil(MIN_OPS / len(inputs.round_ops(workload, seed, 0)))

        tally = Tally()
        digests: list[str] = []
        if trace:
            _clear(regularity)  # both passes of a traced run start from a cold cache
        started = time.perf_counter()
        rounds = _run_rounds(ctx, inputs, seed, min_rounds, tally, digests, speed,
                             deadline=None if trace else started + seconds)
        wall_s = time.perf_counter() - started
        speed.tick()

        # one op re-run in-process must reproduce its first output bit for bit
        first = digests[inputs.round_ops(workload, seed, 0).index(first_op)]
        again = ctx.run(first_op)
        if repr(again.digest) != first:
            tally.wrong.append(f"re-run of {first_op['kind']} gave {again.digest!r}, not {first}")

        layer = None
        if trace:
            counters = {"iterations": 0, "events": 0, "accepted": 0, "points": 0}

            def add(key, amount):
                counters[key] += amount

            def sim(stats):
                add("events", stats.counts.arrivals)
                add("accepted", stats.counts.accepted)

            tracer = Tracer(observers={
                "solver.solve_fixed_point": lambda sol: add("iterations", sol.iterations),
                "simulate.simulate": sim,
                "simulate.simulate_discounted": sim,
                "simulate.simulate_queue": sim,
                "simulate.deviation_scan": lambda rep: add("points", len(rep.points)),
            })
            traced = Tally()
            _clear(regularity)
            tracer.install()
            try:
                _run_rounds(ctx, inputs, seed, min_rounds, traced, None, speed, tracer=tracer)
            finally:
                tracer.uninstall()
            spans_path = workdir.parent / f"spans-{workload}-{seed}.json"
            tracer.write_spans(spans_path)
            overhead = sum(traced.latencies) / sum(tally.latencies) - 1.0
            layer = _per_layer(metrics, tracer, traced, counters, regularity, overhead)
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.wrong += traced.wrong
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = tally.latencies
    scaled = [speed.scaled(t, when) for t, when in zip(lat, tally.when)]

    def setup(scale):
        return (statistics.median(scale(t, w) for t, w in import_samples)
                + statistics.median(scale(t, w) for t, w in setup_samples))

    def timings(latencies, scale):
        return {
            "setup_s": setup(scale),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": metrics.percentile(latencies, 0.5) * 1e3,
            "op_p90_ms": metrics.percentile(latencies, 0.9) * 1e3,
        }

    raw = timings(lat, lambda t, w: t)
    e2e = timings(scaled, speed.scaled)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    reference = _reference_digest(workload, seed)
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace), "rounds": rounds,
        "ops": len(lat), "wall_s": wall_s, "env": env,
        "import_s_median": statistics.median(t for t, _ in import_samples),
        "prepare_s_median": statistics.median(t for t, _ in setup_samples),
        "sim_events_per_s": (tally.events / sum(t for t, sim in zip(scaled, tally.simulating)
                                                if sim) if tally.events else None),
        "raw": raw, "kernel_samples": len(speed.times),
        "gate_misses": tally.gate_misses,
        "digest": digest,
        "digest_reference": ("none recorded for this seed" if reference is None
                             else "match" if reference == digest else "MISMATCH"),
    }
    return {"summary": summary, "e2e": e2e, "layer": layer, "tally": tally}


def _clear(cached) -> None:
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def _per_layer(metrics, tracer, tally: Tally, counters: dict, regularity,
               overhead: float) -> dict:
    layer_self = tracer.layer_self_s()
    calls = tracer.calls.get("model.regularity_check", 0)
    if hasattr(regularity, "cache_info"):
        hits, misses = regularity.cache_info().hits, regularity.cache_info().misses
    else:  # no cache: every call does the work
        hits, misses = 0, calls
    sim_busy = sum(tracer.busy_s.get(f"simulate.{n}", 0.0)
                   for n in ("simulate", "simulate_discounted", "simulate_queue"))
    special = {
        "solver.solve_fixed_point.iterations": counters["iterations"],
        "simulate.events": counters["events"],
        "simulate.accepted": counters["accepted"],
        "simulate.events_per_busy_s": counters["events"] / sim_busy if sim_busy else 0.0,
        "simulate.deviation_scan.points": counters["points"],
        "simulate.gate_misses": tally.gate_misses,
        "cli.output_bytes": tally.output_bytes,
        "model.regularity_check.hits": hits,
        "model.regularity_check.misses": misses,
        "trace.overhead_frac": overhead,
        "trace.spans": len(tracer.spans),
    }
    out = {}
    for name, unit in metrics.PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if name in special:
            value = special[name]
        elif name.startswith("cli.exit_code."):
            value = tally.exit_codes.get(suffix, 0)
        elif name.startswith("layer."):
            value = layer_self[base.split(".")[1]]
        else:
            value = {"calls": tracer.calls, "busy_s": tracer.busy_s,
                     "self_s": tracer.self_s}[suffix].get(base, 0)
        out[name] = metrics.metric(value, unit)
    return out


def _print_report(result: dict) -> None:
    s, e2e, tally = result["summary"], result["e2e"], result["tally"]
    print(f"perfbench {s['workload']} seed={s['seed']} trace={s['trace']} "
          f"rounds={s['rounds']} ops={s['ops']} wall_s={s['wall_s']:.2f}")
    print("env " + json.dumps(s["env"], sort_keys=True))
    units = dict(metrics.END_TO_END)
    notes = {
        "setup_s": f"import {s['import_s_median']:.4f} s + generation and warm-up "
                   f"{s['prepare_s_median']:.4f} s, medians of {SETUP_REPEATS}",
        "op_p90_ms": f"{s['ops']} samples",
    }
    print(f"  timings at reference speed ({s['kernel_samples']} kernel timings); "
          "raw figures in brackets")
    for name, value in e2e.items():
        raw = f"[{s['raw'][name]:.6g}]" if name in s["raw"] else ""
        print(f"  {name:<18} {value:>14.6g} {units[name]:<6} {raw:<14} {notes.get(name, '')}")
    events = s["sim_events_per_s"]
    print(f"  {'sim_events_per_s':<18} "
          + (f"{events:>14.6g} 1/s    arrivals in returned SimStats / time of those ops"
             if events
             else f"{'n/a':>14} 1/s    no simulated arrivals returned"))
    failed = len(tally.failed)
    print(f"  {'failed_frac':<18} {failed / tally.attempted:>14.6g} ratio  "
          f"{failed} failed / {tally.attempted} attempted")
    print(f"  gate_misses {s['gate_misses']} (statistical gates; not failures)")
    print(f"  digest sha256:{s['digest']} reference: {s['digest_reference']}")
    for line in (tally.failed[:8] + tally.wrong[:8]):
        print(f"  ! {line}")


def _run_all(args) -> int:
    """Each workload in its own process; their output is passed through."""
    status = 0
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, timeout=900)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(result)
    tally = result["tally"]
    if args.trace:
        values = result["layer"]
    else:
        units = dict(metrics.END_TO_END)
        values = {k: metrics.metric(v, units[k]) for k, v in result["e2e"].items()}
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
