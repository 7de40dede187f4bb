"""Run one frogcrit benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload line_mc --seed 1 --seconds 30 --trace 0

Workloads are line_mc, tree_mc and exact_sweep (README.md says why each);
`--workload all` runs the three in turn.  Load is one closed-loop client:
one pass at a time, each started after the previous one ended.

--trace 0 gives the end-to-end metrics.  A line_mc or tree_mc pass is one
CLI process from spawn to exit; an exact_sweep pass is one full sweep in a
fresh worker process (sweep_worker.py).  setup_s is the median over at
least SETUP_PROBES fresh interpreters that import the package (exact_sweep
adds one warm-up cell).

--trace 1 runs the passes in this process, alternating untraced and traced
ones, and gives the per-layer metrics of tracing.py.

Every run starts with one warm-up pass at DEFAULT_SEED that is not timed
into the result and whose output must match the SHA-256 in expected.json.
Every pass is checked.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
provenance, and .bench_out/ the full record (plus the spans of a traced run).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracing import PER_LAYER, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, mc_seed, run_cli_inprocess, sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "FROGCRIT_THREADS")


def expected_sha256(workload) -> str:
    """The digest of the workload's output at DEFAULT_SEED, from expected.json."""
    return json.loads((BENCH / "expected.json").read_text())["sha256"][workload.name]


@dataclass
class Spawned:
    wall_s: float
    code: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def spawn(cmd: list[str]) -> Spawned:
    """Run cmd from spawn to exit, with the package under test first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Spawned(wall, proc.returncode, out.read().decode(), err.read().decode(),
                       usage.ru_maxrss / 1024.0)


def setup_probe(workload) -> float:
    probe = spawn([sys.executable, "-c", workload.setup_code])
    if probe.code != 0:
        raise SystemExit(f"set-up failed with exit code {probe.code}:\n{probe.stderr}")
    return probe.wall_s


def cli_pass(workload, seed: int, reference: str | None) -> dict:
    """One CLI process, checked: its wall time, peak RSS, digest and problems."""
    run = spawn(workload.command(sys.executable, seed))
    record = judge(workload, (run.code, run.stdout, "RuntimeWarning" in run.stderr), reference)
    if run.code != 0:
        record["problems"].append(run.stderr.strip()[-500:])
    record.update(s=run.wall_s, peak_rss_mb=run.peak_rss_mb)
    return record


def measure_cli(workload, seed: int, seconds: float) -> tuple[dict, list[dict], list[float]]:
    """Passes until `seconds` have passed, each after one set-up probe.

    Interleaving the probes with the passes lets both sample the same
    stretch of machine time.
    """
    expected = expected_sha256(workload)
    warmup = cli_pass(workload, DEFAULT_SEED, expected)
    setup, passes = [], []
    reference = expected if mc_seed(seed) == DEFAULT_SEED else None
    deadline = time.perf_counter() + seconds
    while (len(passes) < MIN_PASSES or len(setup) < SETUP_PROBES
           or time.perf_counter() < deadline):
        setup.append(setup_probe(workload))
        passes.append(cli_pass(workload, seed, reference))
        reference = passes[0]["digest"]  # same seed, same bytes
    return warmup, passes, setup


def measure_sweep(workload, seed: int, seconds: float) -> tuple[dict, list[dict], list[float]]:
    """One worker runs every sweep; half the set-up probes go before it, half after."""
    setup = [setup_probe(workload) for _ in range(SETUP_PROBES // 2)]
    run = spawn([sys.executable, str(BENCH / "sweep_worker.py"), "--seed", str(seed),
                 "--seconds", str(seconds), "--min-passes", str(MIN_PASSES)])
    setup += [setup_probe(workload) for _ in range(SETUP_PROBES - len(setup))]
    if run.code != 0:
        raise SystemExit(f"sweep worker failed with exit code {run.code}:\n{run.stderr}")
    sweeps = []
    for sweep in json.loads(run.stdout.splitlines()[-1]):
        outcome = (sweep["records"], sweep["failed"], sweep["problems"])
        record = judge(workload, outcome, None)
        record.update(s=sweep["s"], peak_rss_mb=run.peak_rss_mb)
        sweeps.append(record)
    if "RuntimeWarning" in run.stderr:
        sweeps[0]["problems"].append("RuntimeWarning on the worker's stderr")
        sweeps[0]["failed"] = max(sweeps[0]["failed"], 1)
    return sweeps[0], sweeps[1:], setup


def end_to_end(workload, passes: list[dict], setup: list[float]) -> dict:
    wall = statistics.median(p["s"] for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def inprocess_call(workload, seed: int):
    """What a traced pass covers: the program's own work, checks excluded where possible."""
    if workload.name == "exact_sweep":
        return workload.run_pass(workload.cells(seed))
    return run_cli_inprocess(workload.argv(seed))


def judge(workload, outcome, reference: str | None) -> dict:
    """Check one pass: its digest, operations attempted and failed, and problems.

    A CLI outcome is (exit code, stdout, whether a RuntimeWarning was seen);
    a sweep outcome is what ExactSweep.run_pass returns.  Sweep records
    must always match expected.json, since the seed only orders the cells.
    """
    if workload.name == "exact_sweep":
        records, failed, problems = outcome
        digest, attempted = workload.digest(records), workload.items
        reference = expected_sha256(workload)
    else:
        code, stdout, warned = outcome
        digest, attempted, failed = sha256(stdout), 1, 0
        problems = workload.check(stdout) if code == 0 else [f"exit code {code}"]
        if warned:
            problems.append("RuntimeWarning")
    if reference is not None and digest != reference:
        problems.append(f"output sha256 {digest} differs from {reference}")
    failed = max(failed, int(bool(problems)))
    return {"digest": digest, "attempted": attempted, "failed": failed, "problems": problems}


def measure_traced(workload, seed: int, seconds: float):
    """Alternate untraced and traced in-process passes; per-layer metrics are medians."""
    sys.path.insert(0, str(SRC))
    import frogcrit

    if Path(frogcrit.__file__).resolve().parent != SRC / "frogcrit":
        raise SystemExit(f"imported frogcrit from {frogcrit.__file__}, not from {SRC}")
    expected = expected_sha256(workload)
    start = time.perf_counter()
    warmup = judge(workload, inprocess_call(workload, DEFAULT_SEED), expected)
    warmup["s"] = time.perf_counter() - start
    reference = expected if mc_seed(seed) == DEFAULT_SEED else None
    untraced, traced, traces = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        # alternate which side goes first, so drift does not favour either
        for side in ((0, 1) if len(traced) % 2 == 0 else (1, 0)):
            tracer = Tracer()
            if side:
                with tracer.installed():
                    outcome = tracer.run("pass", inprocess_call, workload, seed)
                wall, layers = tracer.layer_metrics(workload.home_layer)
            else:
                start = time.perf_counter()
                outcome = inprocess_call(workload, seed)
                wall, layers = time.perf_counter() - start, None
            record = judge(workload, outcome, reference)
            record.update(s=wall, layers=layers)
            reference = reference or record["digest"]
            if side:
                traced.append(record)
                traces.append(tracer)
            else:
                untraced.append(record)
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in PER_LAYER if name != "trace.overhead_frac"}
    untraced_wall = statistics.median(p["s"] for p in untraced)
    metrics["trace.overhead_frac"] = statistics.median(p["s"] for p in traced) / untraced_wall - 1.0
    write_spans(workload, seed, traces)
    return warmup, untraced + traced, metrics


def write_spans(workload, seed: int, traces: list) -> None:
    passes = []
    for tracer in traces:
        t0 = tracer.spans[0][1]
        passes.append({
            "summary": tracer.summary(),
            "counts": dict(tracer.counts),
            "spans": [[name, start - t0, end - t0, parent]
                      for name, start, end, parent in tracer.spans],
        })
    path = OUT / f"spans-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed, "passes": passes}))


def _cpu() -> tuple[str | None, dict]:
    """CPU model name and cache sizes by level, as the kernel reports them."""
    model, caches = None, {}
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / name).read_text().strip()
                                 for name in ("level", "type", "size"))
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    except OSError:
        pass
    return model, caches


def provenance(workload, seed: int, seconds: float, trace: int, warmup: dict,
               passes: int) -> dict:
    cpu_model, caches = _cpu()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    git_sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "frogcrit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "mc_seed": mc_seed(seed),
        "seconds": seconds, "trace": trace, "passes": passes,
        "load": "closed loop, one client, one pass at a time",
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "cpu_model": cpu_model, "caches": caches},
        "software": {"python": platform.python_version(), "numpy": numpy_version},
        "source": {"git_sha": git_sha, "src_sha256": src.hexdigest()},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "warmup": {"seed": DEFAULT_SEED, "s": warmup["s"], "sha256": warmup["digest"],
                   "expected_sha256": expected_sha256(workload),
                   "discarded": True},
    }


def run(workload, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        warmup, passes, metrics = measure_traced(workload, seed, seconds)
        units = PER_LAYER
        setup = []
    else:
        measure = measure_sweep if workload.name == "exact_sweep" else measure_cli
        warmup, passes, setup = measure(workload, seed, seconds)
        metrics = end_to_end(workload, passes, setup)
        units = END_TO_END
    everything = [warmup, *passes]
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    problems = [msg for p in everything for msg in p["problems"]]
    prov = provenance(workload, seed, seconds, trace, warmup, len(passes))

    print(f"workload {workload.name}  seed {seed}  trace {trace}  "
          f"passes {len(passes)} (+1 warm-up at seed {DEFAULT_SEED}, discarded)")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not trace:
        walls = [p["s"] for p in passes]
        if len(walls) > 1:
            q1, _, q3 = statistics.quantiles(walls, n=4)
            print(f"  {'wall_s quartiles':34s} {q1:.4f} .. {q3:.4f} s over {len(walls)} passes")
        print(f"  {'items':34s} {workload.items} {workload.items_unit} per pass")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} ({failed}/{attempted})")
    for msg in problems[:20]:
        print(f"  problem: {msg}")
    print(json.dumps({"provenance": prov}))

    OUT.joinpath(f"result-{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"provenance": prov, "metrics": metrics, "setup_s": setup,
                    "passes": passes, "warmup": warmup}, default=str))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "frogcrit" / "cli.py").is_file():
        print(f"error: no frogcrit package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run(WORKLOADS[name], args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
