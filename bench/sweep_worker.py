"""Worker process of the exact_sweep workload: one warm-up sweep, then timed sweeps.

    python3 bench/sweep_worker.py --seed S --seconds T --min-passes M

The warm-up sweep uses DEFAULT_SEED and is not timed into the result.
Timed sweeps follow one after another until T seconds have passed and at
least M sweeps are done.  Prints one JSON list, warm-up first: per sweep
its seconds, its cell records, its failed cells and the problems found.
"""

import argparse
import json
import time

from workloads import DEFAULT_SEED, WORKLOADS


def sweep(workload, seed: int) -> dict:
    start = time.perf_counter()
    records, failed, problems = workload.run_pass(workload.cells(seed))
    return {"s": time.perf_counter() - start, "records": records, "failed": failed,
            "problems": problems}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS["exact_sweep"]
    warmup = sweep(workload, DEFAULT_SEED)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < args.min_passes or time.perf_counter() < deadline:
        passes.append(sweep(workload, args.seed))
    print(json.dumps([warmup, *passes]))


if __name__ == "__main__":
    main()
