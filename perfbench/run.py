"""edgerecon benchmark: host throughput, latency, set-up time and memory.

    python3 perfbench/run.py --workload camera-grid --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the root of a checkout; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output is one JSON object holding
every end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
taken in a traced run. Earlier lines show the same numbers for people. Each
run also writes a result file (git SHA, nproc, Python and numpy versions,
fingerprint) under ``.perfbench_out/results/``; ``compare.py`` compares two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# One process, one thread: keep numpy's BLAS pool from starting threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import calibrate  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# (name, unit, better) of each end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("frames_per_s", "frames/s", "higher"),
    ("episode_ms_p50", "ms", "lower"),
    ("episode_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("reliability_pct", "%", "higher"),
)
SETUP_REPEATS = 9
TAIL_LADDER = (50, 75, 90, 95, 99)


def tail_percentile(n: int) -> int:
    """Highest ladder percentile that leaves at least ten of n samples beyond it."""
    fitting = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10]
    return fitting[-1] if fitting else 50


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_sha() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(name: str, seed: int, frames: int, work: Path) -> tuple[float, float]:
    """Median set-up seconds of SETUP_REPEATS fresh processes, one after another.

    Returns (rescaled to the reference host speed, raw). Each probe is
    rescaled by a fresh-interpreter reference started right after it (see
    calibrate.startup_sample).
    """
    raw, scaled = [], []
    for k in range(SETUP_REPEATS):
        probe_dir = work / f"setup-{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(frames),
             str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        scaled.append(raw[-1] * calibrate.STARTUP_REFERENCE_S / calibrate.startup_sample(ROOT))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Counts attempts and failures over every episode a run executes."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures: list[str] = []

    def reference(self, corrupt):
        refs, failures = self.wl.reference(corrupt)
        self.attempted += len(refs)
        self.failures += failures
        return refs

    def episode(self, k: int) -> tuple[float, object]:
        """Runs episode k of the pass; returns its host seconds and its output."""
        t0 = time.perf_counter()
        out = self.wl.run(self.wl.episodes[k])
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        return elapsed, out

    def check(self, k: int, out, refs) -> None:
        """Checks episode k's output against the reference pass; untimed."""
        try:
            self.wl.check(out, refs[k])
        except Exception as exc:   # noqa: BLE001 - every failure is counted
            self.failures.append(f"{self.wl.episodes[k].id}: {type(exc).__name__}: {exc}")

    def end_pass(self, outs) -> float:
        t0 = time.perf_counter()
        self.wl.end_pass(outs)
        return time.perf_counter() - t0


def timed_phase(run: Run, refs, seconds: float) -> dict:
    """Untraced: repeat the pass until `seconds` and min_episodes are both reached.

    Times are rescaled to the reference host speed (see calibrate.py).
    """
    wl = run.wl
    per_pass = len(wl.episodes)
    outs = [None] * per_pass
    episodes = []          # indices into clock.raw of the episode times
    clock = calibrate.Clock()
    start = time.perf_counter()
    while True:
        k = len(episodes) % per_pass
        elapsed, outs[k] = run.episode(k)
        episodes.append(len(clock.raw))
        clock.add(elapsed)
        run.check(k, outs[k], refs)
        if k == per_pass - 1:
            clock.add(run.end_pass(outs))
        if len(episodes) >= wl.min_episodes and time.perf_counter() - start >= seconds:
            break
    scaled = clock.scaled()
    return {"times": [scaled[i] for i in episodes], "busy": sum(scaled), "clock": clock,
            "episodes": episodes}


def one_pass(run: Run, refs, tracer=None) -> float:
    """One full pass; returns frames per second at reference speed over its timed part."""
    wl = run.wl
    outs = []
    clock = calibrate.Clock()
    for k in range(len(wl.episodes)):
        if tracer is None:
            elapsed, out = run.episode(k)
        else:
            with tracer.in_episode():
                elapsed, out = run.episode(k)
        clock.add(elapsed)
        run.check(k, out, refs)
        outs.append(out)
    clock.add(run.end_pass(outs))
    return wl.frames * len(wl.episodes) / sum(clock.scaled())


def traced_phase(run: Run, refs, seconds: float, tracer) -> dict:
    """Alternates an untraced and a traced pass until `seconds` is reached."""
    import tracing
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(one_pass(run, refs))
        with tracing.installed(tracer):
            run.wl.traced_extras()
            traced.append(one_pass(run, refs, tracer))
    return {"untraced_fps": untraced, "traced_fps": traced}


def traced_peak_mb(run: Run, refs) -> float:
    """Peak traced Python allocation during the first episode, with tracing patches off."""
    tracer, run.wl.tracer = run.wl.tracer, None
    tracemalloc.start()
    try:
        _, out = run.episode(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        run.wl.tracer = tracer
    run.check(0, out, refs)
    return peak / 2**20


def untraced_metrics(run: Run, refs, args, reliabilities):
    """End-to-end metrics: set-up probes, then the timed phase; returns (metrics, notes, raw)."""
    wl = run.wl
    setup = measure_setup(wl.name, args.seed, args.frames, wl.work)
    phase = timed_phase(run, refs, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times, clock = phase["times"], phase["clock"]
    n = len(times)
    p_tail = tail_percentile(wl.min_episodes)
    metrics = {
        "frames_per_s": n * wl.frames / phase["busy"],
        "episode_ms_p50": 1e3 * statistics.median(times),
        "episode_ms_tail": 1e3 * percentile(times, p_tail),
        "setup_s": setup[0],
        "peak_rss_mb": rss_mb,
        "reliability_pct": statistics.fmean(reliabilities) if reliabilities else 0.0,
    }
    notes = {
        "frames_per_s": f"{n * wl.frames} frames over {phase['busy']:.2f} s at reference speed "
                        f"({sum(clock.raw):.2f} host s, host speed {clock.speed():.3f})",
        "episode_ms_p50": f"n={n} episodes",
        "episode_ms_tail": f"p{p_tail}, n={n} episodes",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes at reference speed "
                   f"({setup[1]:.4f} host s)",
        "peak_rss_mb": "max resident set of this process",
        "reliability_pct": f"mean over {len(reliabilities)} reference episodes",
    }
    raw = {"setup_s": setup[1], "timed_s": clock.raw, "episode_index": phase["episodes"],
           "kernel_s": clock.samples}
    return metrics, notes, raw


def traced_metrics(run: Run, refs, args, tracer, lines: list[str]):
    """Per-layer metrics from a traced run; appends the self-time table to `lines`."""
    import tracing
    wl = run.wl
    phase = traced_phase(run, refs, args.seconds, tracer)
    peak_mb = traced_peak_mb(run, refs)
    traced_passes = len(phase["traced_fps"])
    untraced_fps = statistics.median(phase["untraced_fps"])
    traced_fps = statistics.median(phase["traced_fps"])
    metrics = tracing.layer_metrics(
        tracer,
        traced_frames=traced_passes * len(wl.episodes) * wl.frames,
        traced_passes=traced_passes,
        action_space_size=wl.first_episode_setup(),
        traced_peak_mb=peak_mb,
        overhead_pct=100.0 * (untraced_fps / traced_fps - 1.0),
    )
    lines.append(f"traced run: {traced_passes} traced and {traced_passes} untraced passes; "
                 f"untraced {untraced_fps:.1f} frames/s, traced {traced_fps:.1f} frames/s "
                 "(medians, at reference speed)")
    lines += self_time_table(tracer)
    (OUT / "spans").mkdir(exist_ok=True)
    spans_path = OUT / "spans" / f"{wl.name}.npz"       # latest traced run only: files are large
    tracer.save(spans_path)
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    notes = {name: f"should move {moves}" for name, _, moves in tracing.LAYER_METRICS}
    return metrics, notes, phase


def run_workload(args) -> tuple[dict, list[str]]:
    import numpy
    import edgerecon
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, args.frames, work, tracer)
    lines = [f"workload {wl.name}, seed {args.seed}: {len(wl.episodes)} episodes of "
             f"{wl.frames} frames per pass; edgerecon from {Path(edgerecon.__file__).parent}"]
    try:
        wl.prepare()
        run = Run(wl)
        refs = run.reference(args.corrupt)
        reliabilities = [ref.summary["reliability_pct"] for ref in refs if ref is not None]
        if args.trace:
            metrics, notes, raw = traced_metrics(run, refs, args, tracer, lines)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            metrics, notes, raw = untraced_metrics(run, refs, args, reliabilities)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    for name, value in metrics.items():
        lines.append(f"  {name:30s} {value:14.4f} {units[name]:9s} {notes[name]}")
    lines.append(f"  {'failed_share':30s} {failed / run.attempted:14.4f} {'':9s} "
                 f"{failed} of {run.attempted} episodes")
    verdict = "PASS" if not run.failures else "FAIL"
    lines.append(f"output check: {verdict} ({run.attempted} episodes checked)")
    lines += [f"  failed: {f}" for f in run.failures[:10]]

    fp = workloads.fingerprint(refs)
    path = OUT / "results" / f"{wl.name}-seed{args.seed}-frames{wl.frames}-trace{args.trace}.json"
    previous = json.loads(path.read_text())["fingerprint"] if path.exists() else None
    same = {None: "no earlier result", fp: "same as the earlier result"}.get(
        previous, "DIFFERENT from the earlier result")
    lines.append(f"fingerprint: {fp} ({same} for this workload, seed and size)")

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "frames_per_episode": wl.frames, "episodes_per_pass": len(wl.episodes),
        "git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "fingerprint": fp, "reliability_pct": reliabilities,
        "failures": run.failures, **result, "notes": notes, "raw": raw,
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"result written to {path.relative_to(ROOT)}")
    return result, lines


def self_time_table(tracer) -> list[str]:
    times = tracer.self_times()
    total = sum(t for _, t in times.values()) or 1.0
    lines = [f"  {'span (self time)':36s} {'calls':>9s} {'total s':>9s} {'share':>7s}"]
    for name, (calls, secs) in sorted(times.items(), key=lambda kv: -kv[1][1]):
        if calls:
            lines.append(f"  {name:36s} {calls:9d} {secs:9.3f} {100 * secs / total:6.1f}%")
    return lines


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--frames", str(args.frames)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600,
                              check=False)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        print("\n".join(out[:-1]), flush=True)
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("camera-grid", "server-grid", "rig12-replay", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frames", type=int, default=4000,
                        help="frames per episode; smaller only for smoke tests")
    parser.add_argument("--corrupt", type=int, default=None,
                        help="corrupt this reference episode's frame log (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.frames <= 0:
        parser.error("--seed must be >= 0, --seconds and --frames > 0")

    package = ROOT / "src" / "edgerecon" / "__init__.py"
    if not package.is_file():
        print(f"no edgerecon sources at {package.parent}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        result = run_all(args)
    else:
        result, lines = run_workload(args)
        print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
