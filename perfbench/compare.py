"""Compares the simulated statistics of two sets of benchmark results.

    python3 perfbench/compare.py <result file or dir A> <result file or dir B>

Result files are what ``run.py`` writes under ``.perfbench_out/results/``.
Files are matched by name (workload, seed, trace flag). For each pair it
prints whether the fingerprints, the per-episode ``reliability_pct`` values
and, for traced runs, ``environment.noise_draws`` are identical. A change
that only claims speed must leave all three the same. Exits 1 on any
difference or when nothing matches.
"""

import json
import sys
from pathlib import Path


def _results(path: Path) -> dict[str, dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return {f.name: json.loads(f.read_text()) for f in files}


def _noise_draws(record: dict):
    entry = record["metrics"].get("environment.noise_draws")
    return entry["value"] if entry else None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (_results(Path(p)) for p in argv)
    names = sorted(a.keys() & b.keys())
    if not names:
        print("no result files with matching names", file=sys.stderr)
        return 1
    differ = False
    for name in names:
        ra, rb = a[name], b[name]
        checks = {
            "fingerprint": ra["fingerprint"] == rb["fingerprint"],
            "reliability_pct": ra["reliability_pct"] == rb["reliability_pct"],
            "noise_draws": _noise_draws(ra) == _noise_draws(rb),
        }
        differ |= not all(checks.values())
        verdict = "same" if all(checks.values()) else "DIFFERENT"
        detail = ", ".join(f"{k} {'same' if ok else 'differs'}" for k, ok in checks.items())
        print(f"{name}: {verdict} fingerprint ({ra['fingerprint'][:16]} vs "
              f"{rb['fingerprint'][:16]}); {detail}")
    for name in sorted(a.keys() ^ b.keys()):
        print(f"{name}: only in one set")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
