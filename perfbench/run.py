"""switchwork benchmark: three correctness-gated workloads, end to end and
layer by layer, plus gated closed-form figure timings in the traced run.

    python3 perfbench/run.py --workload fock_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from src/ (it
need not be installed).  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run.  --workload all
runs every workload in both modes.  Each metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record (machine, software, seed,
failures, gate margins) is written to perfbench/results/.

This file uses only the standard library: every import of the program
happens in worker.py processes, whose BLAS thread count is set here.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    # name: nominal batch time in seconds at introduction (2-core Xeon,
    # 1 BLAS thread); --seconds / nominal gives the batches in a run, so
    # a run does the same work on every commit.
    "fock_sweep": 10.0,
    "u2_figures": 8.0,
    "passivity_scan": 4.5,
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5  # fresh processes timed to their first item; the median is reported
# With two BLAS threads, OpenBLAS calls at small d stall whenever the second
# thread is not scheduled at once (displacement_op at n_max = 46 took 80 ms
# instead of 0.8 ms on the 2-core introduction machine).
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    return env


def launch(args: list[str], env: dict[str, str]) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = worker_env()
    batches = max(1, round(seconds / WORKLOADS[workload]))
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [launch(common + ["--setup-only"], env)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    out = launch(
        common + ["--batches", str(batches), "--trace", str(trace), "--spans-out", str(results / f"{stem}-spans.json")],
        env,
    )
    setups.append(out["setup_s"])
    if trace:
        metrics = {name: tuple(value_unit) for name, value_unit in out["per_layer"].items()}
    else:
        values = dict(out, setup_s=statistics.median(setups))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_frac": out["failed"] / out["attempted"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "setup_samples_s": setups,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "blas_threads_env": {name: env[name] for name in BLAS_ENV},
            **out["software"],
        },
        "run": {k: v for k, v in out.items() if k not in ("per_layer", "software")},
    }
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["path"] = str(path.relative_to(ROOT))
    return record


def show(record: dict) -> None:
    run = record["run"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} items in {run['batches']} batches of {run['items_per_batch']}, "
          f"{record['failed']} failed (failed_frac {record['failed_frac']:.6g}), "
          f"divergent per batch {run['divergent_per_batch'][0] if run['divergent_per_batch'] else 0}")
    if not record["trace"]:
        print(f"  item_ms_tail is p{run['tail_percentile']:.4g} of {run['items']} items "
              f"({run['tail_beyond']} beyond); setup samples {len(record['setup_samples_s'])}")
    for failure in run["failures"]:
        print(f"  FAILED batch {failure['batch']} item {failure['item']}: {failure['error']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    machine = record["machine"]
    print(f"  machine: {machine['nproc']} cpus, {machine['cpu_model']}, python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}, {machine['blas']}, "
          f"BLAS threads {machine['blas_threads_env']['OPENBLAS_NUM_THREADS']}")
    print(f"  record: {record['path']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="switchwork benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "switchwork" / "__init__.py").is_file():
        sys.stderr.write(f"error: no switchwork package under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    records = []
    try:
        for workload, trace in plan:
            records.append(run_one(workload, args.seed, args.seconds, trace))
            show(records[-1])
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
