"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

For each workload it runs ``run.py`` untraced and traced and asserts that
every metric is printed by name with its unit, in the text and in the final
JSON line. It corrupts one episode's frame log and asserts the episode is
counted as failed, and checks that a directory without the package sources
makes the benchmark exit non-zero without a result. Exits 0 when all pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FRAMES = 60


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(name: str, trace: int, expected) -> None:
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--frames", str(FRAMES))
    result, text = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert list(result["metrics"]) == [m for m, _ in expected], result["metrics"]
    for metric, unit in expected:
        assert result["metrics"][metric]["unit"] == unit, (metric, result["metrics"][metric])
        assert any(line.split()[:1] == [metric] and f" {unit} " in line for line in text), \
            f"{name}: {metric} [{unit}] not printed"
    assert any(line.startswith("output check: PASS") for line in text), text
    print(f"ok  {name} trace={trace}: {len(expected)} metrics with units, output check PASS")


def check_corruption(name: str) -> None:
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--frames", str(FRAMES), "--corrupt", "0")
    result, text = result_of(proc)
    record = json.loads((ROOT / ".perfbench_out" / "results" /
                         f"{name}-seed3-frames{FRAMES}-trace0.json").read_text())
    episode0 = workloads.WORKLOADS[name](3, FRAMES, ROOT).episodes[0].id
    assert not result["correct"] and result["failed"] >= 1, result
    assert all(f.startswith(f"{episode0}:") for f in record["failures"]), record["failures"]
    share = next(line for line in text if line.split()[:1] == ["failed_share"])
    assert abs(float(share.split()[1]) - result["failed"] / result["attempted"]) < 1e-4, share
    print(f"ok  {name}: corrupted episode {episode0} counted, "
          f"{result['failed']} of {result['attempted']} failed")


def check_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "camera-grid", "--seed", "0", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    end_to_end = [(name, unit) for name, unit, _ in run.END_TO_END]
    per_layer = [(name, unit) for name, unit, _ in tracing.LAYER_METRICS]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        check_metrics(name, 0, end_to_end)
        check_metrics(name, 1, per_layer)
    check_corruption("camera-grid")
    check_corruption("rig12-replay")
    check_without_sources()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
