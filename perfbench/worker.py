"""One workload process: set up, run the batches, gate every item, report.

run.py launches this file with PYTHONPATH and the BLAS thread variables
already set, and passes the monotonic time at which it launched the
process, so that the set-up time counts interpreter start, the imports of
switchwork/numpy/scipy and input generation.  With --setup-only the
process stops at the first timed item.  It prints one JSON object on
stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict

import layers  # imports switchwork, numpy and scipy: part of the measured set-up
import workloads

TAIL_BEYOND = 10  # items above the reported tail percentile
MAX_MEASURE_S = 100.0  # no batch starts after this, so a run stays under its time limit
MAX_FAILURES_SHOWN = 5


def item_stats(batches: list[dict]) -> dict[str, float]:
    """p50 and tail over the items of a run.  An item's time is the median
    of its times over the run's batches, so a stall that hits one
    repetition of an item does not set the tail."""
    repeats = defaultdict(list)
    for b in batches:
        for item, t in zip(b["items"], b["times_ms"]):
            repeats[item].append(t)
    ordered = sorted(statistics.median(v) for v in repeats.values())
    n = len(ordered)
    # With TAIL_BEYOND items or fewer (only in smoke runs), the tail is the
    # slowest item.
    tail_index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "items": n,
        "item_ms_p50": statistics.median(ordered),
        "item_ms_tail": ordered[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_beyond": n - tail_index - 1,
    }


def run_batch(workload, index: int, gaps: dict, failures: list, tracer=None) -> dict:
    """Run one batch in a closed loop.  An item fails if it raises
    (including an internal cross-check's AssertionError) or misses the
    gate; either way the loop goes on.  Gate checks run outside the timed
    region."""
    items = workload.batch(index)
    times_ms: list[float] = []
    failed = divergent = 0
    for position, item in enumerate(items):
        if tracer is not None:
            tracer.item = (index, position)
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(item)
            else:
                with tracer.span("item"):
                    output = workload.run(item)
            error = None
        except Exception as exc:  # one failed item; the batch continues
            error = f"{type(exc).__name__}: {exc}"
        times_ms.append((time.perf_counter() - start) * 1e3)
        if error is None:
            error = workload.check(item, output, gaps)
            if error is None and hasattr(workload, "divergent") and workload.divergent(output):
                divergent += 1
        if error is not None:
            failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append({"batch": index, "item": position, "input": repr(item)[:300], "error": error[:300]})
    return {"items": items, "times_ms": times_ms, "wall_s": sum(times_ms) / 1e3, "failed": failed,
            "divergent": divergent}


def measure(workload, n_batches: int, traced: bool) -> dict:
    """Untraced: n_batches batches.  Traced: untraced and traced batches
    alternate, so the trace overhead is measured within one run."""
    gaps: dict[str, float] = {}
    failures: list = []
    tracer = layers.Tracer() if traced else None
    if traced:
        n_batches = max(2, n_batches + n_batches % 2)
    batches = []
    started = time.perf_counter()
    for index in range(n_batches):
        if index >= (2 if traced else 1) and time.perf_counter() - started > MAX_MEASURE_S:
            break
        if traced and index % 2 == 1:
            with tracer.installed():
                batches.append(run_batch(workload, index, gaps, failures, tracer))
        else:
            batches.append(run_batch(workload, index, gaps, failures))
    plain = batches[0::2] if traced else batches
    result = {
        "batches": len(batches),
        "items_per_batch": len(batches[0]["times_ms"]),
        "attempted": sum(len(b["times_ms"]) for b in batches),
        "failed": sum(b["failed"] for b in batches),
        "divergent_per_batch": [b["divergent"] for b in batches],
        "batch_wall_s": [b["wall_s"] for b in batches],
        "times_ms": [b["times_ms"] for b in batches],
        "wall_s": statistics.median(b["wall_s"] for b in plain),
        "failures": failures,
        "gaps": gaps,
        **item_stats(plain),
    }
    if traced:
        traced_batches = batches[1::2]
        traced_wall_ms = 1e3 * sum(b["wall_s"] for b in traced_batches)
        per_layer = layers.span_metrics(tracer.spans, len(traced_batches), traced_wall_ms)
        traced_median_s = statistics.median(b["wall_s"] for b in traced_batches)
        per_layer["trace.overhead_frac"] = traced_median_s / result["wall_s"] - 1.0
        figure_metrics, figure_failed = layers.figure_benchmarks(gaps, failures)
        per_layer.update(figure_metrics)
        result["attempted"] += len(workloads.CLOSED_FORM_FIGURES)
        result["failed"] += figure_failed
        per_layer.update(layers.check_metrics(gaps))
        per_layer.update(layers.microbenchmarks())
        result["per_layer"] = {n: [per_layer[n], layers.metric_unit(n)] for n in layers.metric_names()}
        result["spans"] = tracer.spans
    return result


def software() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batches", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="launch time, time.perf_counter clock")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="where a traced run writes its spans (JSON)")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - args.t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        out.update(measure(workload, args.batches, bool(args.trace)))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spans = out.pop("spans", None)
        if spans is not None and args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": layers.SPAN_FIELDS, "spans": spans}, fh)
        out["software"] = software()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
