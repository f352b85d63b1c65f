"""Times one workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed> <frames> <work dir>

Prints {"setup_s": ...}: host seconds from before ``import edgerecon`` until
everything the workload's first episode needs is built (config, traces,
quality model, action space and policies). ``run.py`` starts it several
times per run and reports the median.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    name, seed, frames, work = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads   # imports edgerecon
    workloads.WORKLOADS[name](seed, frames, work).first_episode_setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
