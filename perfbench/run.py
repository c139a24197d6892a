"""burnmap benchmark: run one workload in a fresh child process and report it.

    python3 perfbench/run.py --workload train-mini --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs in its own process
(perfbench/workloads.py) with burnmap imported from ``src/`` and BLAS pinned
to one thread; this process waits for it with ``os.wait4`` to read its peak
RSS. Output: the machine record, every metric by name with its unit, the
correctness checks, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
Exits non-zero without a result when the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"
WORKLOADS = ("train-mini", "pixel-ml", "scene-map")
BLAS_THREADS = "1"

# Stage metrics are in seconds unless named here.
STAGE_UNITS = {"map_mpix_per_s": "Mpix/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def run_child(args) -> tuple[dict, float]:
    """Run the workload process; return its record and its peak RSS in MB."""
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"), args.workload,
        str(args.seed), str(args.seconds), str(args.trace), str(workdir),
    ]
    try:
        # The child's own chatter goes to stderr; stdout carries the report.
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = workdir / "result.json"
        if proc.returncode != 0 or not result.is_file():
            raise SystemExit(f"workload process failed with exit code {proc.returncode}")
        record = json.loads(result.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return record, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def median(values) -> float:
    """Median, or 0.0 when a failed stage ended the run before any value."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_value(name: str, snapshot: dict):
    """One per-layer metric from a trace snapshot (names as in README.md)."""
    span, _, field = name.rpartition(".")
    if field == "calls":
        return snapshot["calls"].get(span, 0)
    if field == "s":
        return snapshot["total_s"].get(span, 0.0)
    if field in ("fwd_s", "self_s"):
        return snapshot["self_s"].get(span, 0.0)
    if field == "bwd_s":
        return snapshot["total_s"].get(span + ".backward", 0.0)
    return snapshot["counters"].get(name, 0)  # a counter, 0 when never reached


def layer_metrics(spec: list[dict], record: dict, stages: dict) -> dict:
    values = {}
    plain, traced = median(record["walls"]), median(record["traced_walls"])
    for metric in spec:
        name = metric["name"]
        if name == "trace.overhead_frac":
            values[name] = traced / plain - 1.0 if plain and traced else 0.0
        elif "." not in name:  # a stage metric, from the untraced iterations
            values[name] = stages.get(name, 0.0)
        else:
            source = "setup_snapshots" if name.startswith("synthetic.") else "snapshots"
            measured = [layer_value(name, snap) for snap in record[source]]
            # Counts repeat exactly across traced iterations (checked): keep them whole.
            values[name] = measured[0] if len(set(measured)) == 1 else median(measured)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "burnmap" / "__init__.py").is_file():
        print(f"no burnmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record, peak_rss_mb = run_child(args)

    stages = {
        key: median(run[key] for run in record["stages"])
        for key in (record["stages"][0] if record["stages"] else {})
    }
    end_to_end = {
        "setup_s": median(record["setup_runs"]),
        "wall_s": median(record["walls"]),
        "peak_rss_mb": peak_rss_mb,
    }
    machine = dict(record["machine"], nproc=os.cpu_count(), OPENBLAS_NUM_THREADS=BLAS_THREADS)
    print(f"burnmap benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"iterations: {len(record['walls'])} untraced, {len(record['traced_walls'])} traced; "
          f"setup repeated {len(record['setup_runs'])} times (median reported)")
    fail_frac = record["failed"] / record["attempted"]
    lines = [(k, v, "MB" if k == "peak_rss_mb" else "s") for k, v in end_to_end.items()]
    lines.append(("fail_frac", fail_frac, "ratio"))
    lines += [(k, v, STAGE_UNITS.get(k, "s")) for k, v in stages.items()]
    for name, value, unit in lines:
        print(f"  {name:<16} {value:12.4f} {unit}")
    print(f"  ({record['failed']} of {record['attempted']} operations failed)")
    for name, ok, detail in record["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for failure in record["failures"]:
        if failure.startswith("stage"):
            print(f"  failure: {failure}")

    if args.trace:
        spec = bench["per_layer"]
        values = layer_metrics(spec, record, stages)
        for metric in spec:
            print(f"  {metric['name']:<40} {values[metric['name']]:>16.6g} {metric['unit']}")
    else:
        spec = bench["end_to_end"]
        values = end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
