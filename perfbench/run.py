"""Benchmark of sl2cohom: one workload per run, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 12 --trace 0

The loop evaluates one config, checks its output, then starts the next, in
this process and thread.  It runs whole passes over the workload's config
list until ``--seconds`` have passed and enough latencies are sampled for a
p90 with ten samples beyond it.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs the same untraced loop,
then one traced pass, and reports the per-layer metrics; its spans go to
``.perfbench_out/``.  The last line of standard output is the result as JSON.

End-to-end times are reported at reference speed.  On a shared host the
speed of the whole machine drifts by 20-40% within seconds and between
runs.  So the loop times a fixed probe, pure-Python ``Fraction`` arithmetic
that does not touch sl2cohom, between two configs and every
``PROBE_INTERVAL_S`` during one (from SIGALRM).  Each config's wall time,
less the probes run inside it, is scaled by ``PROBE_REF_S`` over the mean
probe time from the probe before it to the probe after it, taken over at
least ``PROBE_WINDOW`` probes.  Raw wall-clock figures are printed beside
the reported ones.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: p90 is reported from at least this many latencies, so >= 10 lie beyond it.
MIN_SAMPLES = 110
#: Fresh processes timed for setup_s; their median is reported.
SETUP_REPEATS = 15
SETUP_CHILD = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.build(sys.argv[3], int(sys.argv[4]))\n"
)
#: About the wall time of one probe on an idle 2-vCPU host with CPython 3.11.
PROBE_REF_S = 250e-6
PROBE_INTERVAL_S = 0.025
#: Fewest probes a config's factor is averaged over.
PROBE_WINDOW = 16


@functools.cache
def _probe_operands() -> list:
    """Pairs of Fractions scattered over a few MiB, so the probe also feels
    contention for the caches and memory, as the program does."""
    rng = random.Random(0)
    pool = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(30000)]
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(100)]


def probe() -> float:
    """Wall time of a fixed computation that gauges how fast the host runs now."""
    pairs = _probe_operands()
    t0 = time.perf_counter()
    for a, b in pairs:
        a * b + a
    return time.perf_counter() - t0


class SpeedGauge:
    """Probe times of the current interval, sampled during a config too."""

    def __init__(self) -> None:
        self._probing = False
        self.probes = [probe()]
        self.recent = collections.deque(self.probes, maxlen=PROBE_WINDOW)
        #: Wall time spent in probes run from the alarm since the last ``factor()``.
        self.stolen = 0.0

    def _probe(self) -> float:
        self._probing = True
        try:
            spent = probe()
        finally:
            self._probing = False
        self.probes.append(spent)
        self.recent.append(spent)
        return spent

    def _on_alarm(self, signum, frame) -> None:
        if not self._probing:  # a probe must not time another one
            self.stolen += self._probe()

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference-speed factor of the interval that ends now; starts the next.

        A short interval borrows earlier probes up to ``PROBE_WINDOW`` of them,
        since one probe alone is too noisy to scale a millisecond config by.
        """
        after = self._probe()
        window = self.probes if len(self.probes) >= len(self.recent) else self.recent
        factor = PROBE_REF_S * len(window) / sum(window)
        self.probes = [after]
        self.stolen = 0.0
        return factor


@dataclass
class LoopResult:
    #: Per-config evaluation times at reference speed, in seconds.
    latencies: list
    #: Evaluation plus check, summed at reference speed.
    busy: float
    #: Wall-clock time of the loop, probes included.
    elapsed: float
    wall_busy: float
    attempted: int
    failed: int
    passes: int
    digest: str
    errors: list

    @property
    def configs_per_s(self) -> float:
        return self.attempted / self.busy

    @property
    def wall_configs_per_s(self) -> float:
        return self.attempted / self.wall_busy


def run_loop(workload, checks, seconds: float, min_samples: int, tracer=None) -> LoopResult:
    """Whole passes until ``seconds`` elapsed and ``min_samples`` latencies taken.

    The latency of a config is its evaluation; throughput also counts the
    checks.  The digest covers the first pass, which holds every config once.
    """
    perf = time.perf_counter
    latencies: list[float] = []
    errors: list[str] = []
    first_pass = []
    failed = passes = 0
    busy = wall_busy = 0.0
    start = perf()
    with SpeedGauge() as gauge:
        while True:
            for index, cfg in enumerate(workload.configs):
                if tracer is not None:
                    tracer.set_config(index)
                s0, t0 = gauge.stolen, perf()
                try:
                    out = workload.evaluate(cfg)
                except Exception:  # a config that raises is a failed attempt; the loop goes on
                    out = None
                    failed += 1
                    errors.append(f"{cfg[0]}:\n{traceback.format_exc()}")
                t1, s1 = perf(), gauge.stolen
                if out is not None:
                    if not workload.check(checks, cfg, out):
                        failed += 1
                    if passes == 0:
                        first_pass.append((cfg, out))
                t2, s2 = perf(), gauge.stolen
                scale = gauge.factor()
                latencies.append((t1 - t0 - (s1 - s0)) * scale)
                busy += (t2 - t0 - (s2 - s0)) * scale
                wall_busy += t2 - t0
            passes += 1
            elapsed = perf() - start
            if elapsed >= seconds and len(latencies) >= min_samples:
                break
    return LoopResult(latencies, busy, elapsed, wall_busy, len(latencies), failed, passes,
                      workload.digest(first_pass), errors)


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median time, at reference speed and raw, of a fresh interpreter that
    imports sl2cohom and builds the workload's configs."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), name, str(seed)]
    subprocess.run(cmd, check=True)  # untimed: writes the bytecode caches once
    scaled, raw = [], []
    before = statistics.fmean(probe() for _ in range(PROBE_WINDOW))
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        wall = time.perf_counter() - t0
        after = statistics.fmean(probe() for _ in range(PROBE_WINDOW))
        scaled.append(wall * 2 * PROBE_REF_S / (before + after))
        raw.append(wall)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workloads, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "configs": {name: len(workloads.build(name, args.seed).configs) for name in workloads.NAMES},
    }


def percentile(sorted_values: list, pct: int) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[pct - 1]


def report_loop(label: str, loop: LoopResult, checks) -> None:
    print(f"{label}: {loop.passes} passes, {loop.attempted} configs in {loop.elapsed:.3f} s wall, "
          f"{loop.wall_configs_per_s:.4f} configs/s wall, "
          f"{loop.configs_per_s:.4f} configs/s at reference speed, {loop.failed} failed")
    print(f"  digest sha256:{loop.digest}")
    print("  checks (evaluated/failed): " + ", ".join(
        f"{name} {done}/{bad}" for name, (done, bad) in sorted(checks.tally.items())))
    for error in loop.errors[:3]:
        print(error, file=sys.stderr)


def end_to_end(workload, loop: LoopResult, checks, setup: tuple[float, float]) -> dict:
    lat = sorted(loop.latencies)
    p50 = percentile(lat, 50) * 1e3
    p90 = percentile(lat, 90) * 1e3
    beyond = sum(1 for v in lat if v * 1e3 > p90)
    metrics = {
        "configs_per_s": loop.configs_per_s,
        "config_p50_ms": p50,
        "config_p90_ms": p90,
        "setup_s": setup[0],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report_loop(f"{workload.name} untraced", loop, checks)
    print("  times at reference speed:")
    print(f"  configs_per_s  {metrics['configs_per_s']:.4f} configs/s")
    print(f"  config_p50_ms  {p50:.3f} ms (n={len(lat)})")
    print(f"  config_p90_ms  {p90:.3f} ms (n={len(lat)}, {beyond} beyond)")
    print(f"  setup_s        {setup[0]:.4f} s ({setup[1]:.4f} s wall; "
          f"median of {SETUP_REPEATS} fresh processes)")
    print(f"  peak_rss_mib   {metrics['peak_rss_mib']:.1f} MiB")
    print(f"  failed_frac    {loop.failed / loop.attempted:.4f} ratio "
          f"({loop.failed} failed of {loop.attempted} attempted)")
    return metrics


def per_layer(workload, untraced: LoopResult, traced: LoopResult, checks, tracer,
              names: list) -> dict:
    metrics = tracer.layer_metrics([name for name in names if not name.startswith("trace.")])
    metrics["trace.overhead_frac"] = untraced.configs_per_s / traced.configs_per_s - 1
    report_loop(f"{workload.name} traced", traced, checks)
    print(f"  trace.overhead_frac {metrics['trace.overhead_frac']:.4f} "
          f"(untraced {untraced.configs_per_s:.4f} configs/s at reference speed)")
    print(f"  {'span':<40} {'calls':>9} {'total_s':>9} {'self_s':>9} {'share':>6}")
    for name, stat in sorted(tracer.stats.items(), key=lambda kv: -kv[1]["total_s"]):
        if stat["calls"]:
            print(f"  {name:<40} {stat['calls']:>9} {stat['total_s']:>9.3f} "
                  f"{stat['self_s']:>9.3f} {stat['total_s'] / traced.elapsed:>6.1%}")
    return metrics


def select(declared: list, measured: dict) -> dict:
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv: Optional[list]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sl2cohom" / "__init__.py").is_file():
        print(f"error: no sl2cohom sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    env = environment(workloads, args)
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads.build(args.workload, args.seed)

    if not args.trace:
        setup = measure_setup(args.workload, args.seed)
        checks = workloads.Checks()
        loop = run_loop(workload, checks, args.seconds, MIN_SAMPLES)
        metrics = select(spec["end_to_end"], end_to_end(workload, loop, checks, setup))
        correct, attempted, failed = loop.failed == 0, loop.attempted, loop.failed
    else:
        untraced_checks, traced_checks = workloads.Checks(), workloads.Checks()
        untraced = run_loop(workload, untraced_checks, args.seconds, MIN_SAMPLES)
        report_loop(f"{workload.name} untraced", untraced, untraced_checks)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_loop(workload, traced_checks, 0, 0, tracer)
        declared = spec["per_layer"]
        metrics = select(declared, per_layer(workload, untraced, traced, traced_checks, tracer,
                                             [m["name"] for m in declared]))
        same = untraced.digest == traced.digest
        print(f"digests {'equal' if same else 'DIFFER'} between untraced and traced runs")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(path), dict(env, digest=traced.digest))
        print(f"spans written to {path.relative_to(ROOT)}")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        correct = failed == 0 and same
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
