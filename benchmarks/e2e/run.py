#!/usr/bin/env python3
"""End-to-end benchmark of the matrix-product estimators, with a traced mode.

One run drives one workload through the library's public API, checks every
output, prints each metric by name with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/e2e/run.py --workload oneshot_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reruns the same
work with every layer boundary wrapped and reports the per-layer metrics
instead (``--trace-out trace.json`` also writes the spans as Chrome
trace-event JSON for Perfetto).  ``--out result.json`` keeps the full
result: stamp, end-to-end or per-layer metrics, and the per-workload
diagnostics.  Two more modes work on such results::

    python3 benchmarks/e2e/run.py --repeat 5 --seed 1 --out runs.json
    python3 benchmarks/e2e/run.py --compare base.json change.json

``--repeat N`` runs every workload (or ``--workload``) N times, each in a
fresh process with seeds ``seed .. seed+N-1``, alternating the workload
order, and writes the median and quartiles of every metric.  ``--compare``
judges a change against a base with the bounds in ``BENCHMARK.json``.

Exit status: 0 when every operation succeeded and every check held, 1 when
any failed, 2 on a usage error or a missing library source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import MIN_CYCLES, WORKLOADS, Run  # noqa: E402

#: The end-to-end metrics every workload reports: (name, unit, better).
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("cycle_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("bits_per_cycle", "bits", "lower"),
)

#: Percentiles a latency distribution may be reported at.
PERCENTILES = (50, 90, 99)


def highest_percentile(samples: int) -> int | None:
    """The highest percentile with at least ten of ``samples`` beyond it."""
    ready = [p for p in PERCENTILES if samples - math.ceil(samples * p / 100) >= 10]
    return ready[-1] if ready else None


def load_library() -> None:
    """Put the checkout's ``src/`` first on the path, or stop (exit 2)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def keep_temp_files_in_checkout() -> None:
    """Send temporary files (the service's shard files, ``--repeat``
    results) to ``.bench_build/tmp`` in the checkout, for this process and
    the site processes it starts."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> dict:
    """Where and how a result was measured; ``host`` must match to compare."""
    import numpy as np
    from repro.sketch._native import current_backend

    return {
        "host": {
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "kernel_backend": current_backend(),
            "REPRO_KERNELS": os.environ.get("REPRO_KERNELS"),
            "REPRO_WORKERS": os.environ.get("REPRO_WORKERS"),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": seed,
        "commit": git_commit(),
    }


def write_json(path: str, value: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(value, indent=1) + "\n")


# --------------------------------------------------------------- one run
def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def block_throughput(run: Run) -> float:
    """Median over blocks of ``run.period`` cycles of operations per second.

    A block holds one repeat of the workload's mix, so every block does the
    same kind of work; the median drops blocks a passing stall slowed down.
    """
    period = run.period
    rates = [
        sum(run.cycle_ops[i:i + period]) / sum(run.cycles[i:i + period])
        for i in range(0, len(run.cycles) - period + 1, period)
    ]
    return statistics.median(rates)


def cycle_p50(run: Run) -> float:
    """Median cycle time at each step of the mix, averaged over the steps.

    With a one-cycle mix this is the plain median.  Where every tenth epoch
    also reads heavy hitters, the plain median would sit on the light
    epochs' upper tail; per step, the heavy epochs neither dominate nor
    vanish.
    """
    return statistics.fmean(
        statistics.median(run.cycles[step::run.period]) for step in range(run.period)
    )


def end_to_end(run: Run) -> dict:
    return {
        "setup_s": metric(statistics.median(run.setup), "s"),
        "ops_per_s": metric(block_throughput(run), "ops/s"),
        "cycle_p50_ms": metric(1e3 * cycle_p50(run), "ms"),
        "peak_rss_mb": metric(run.peak_rss_mb, "MB"),
        "bits_per_cycle": metric(run.bits / MIN_CYCLES, "bits"),
    }


def diagnostics(run: Run) -> dict:
    """The per-workload metrics behind the end-to-end ones.

    A latency percentile appears only when ten samples lie beyond it.
    """
    out: dict[str, dict] = {"cycles": metric(len(run.cycles), "count")}
    for kind, prefix in (("query", "query"), ("epoch", "epoch"), ("live", "live_query")):
        samples = run.latencies.get(kind, [])
        if not samples:
            continue
        out[f"{prefix}_samples"] = metric(len(samples), "count")
        highest = highest_percentile(len(samples))
        if highest is None:
            continue
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        for p in sorted({PERCENTILES[0], highest}):
            out[f"{prefix}_p{p}_ms"] = metric(1e3 * cuts[p - 1], "ms")
    if run.rows_ingested:
        seconds = sum(run.latencies.get("ingest", []))
        out["ingest_rows_per_s"] = metric(run.rows_ingested / seconds, "rows/s")
    if run.query_bits:
        out["bits_per_query"] = metric(statistics.fmean(run.query_bits), "bits")
    if run.epoch_bytes:
        out["upload_bytes_per_epoch"] = metric(statistics.fmean(run.epoch_bytes), "B")
    if run.rel_errors:
        out["rel_error_p50"] = metric(statistics.median(run.rel_errors), "ratio")
    if run.live_samples:
        out["live_sample_zero_share"] = metric(run.zero_samples / run.live_samples, "ratio")
    out["error_rate"] = metric(run.failed / max(run.attempted, 1), "ratio")
    return out


def run_workload(args: argparse.Namespace) -> int:
    load_library()
    workload = WORKLOADS[args.workload]
    sizes = workload.tiny if args.tiny else workload.sizes
    tracer = Tracer().install() if args.trace else None
    run = Run(tracer=tracer, seconds=args.seconds, period=sizes.period,
              min_cycles=sizes.min_cycles)
    try:
        workload.run(run, args.seed, sizes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        values = tracer.metrics(
            cycles=len(run.cycles), ops_per_s=block_throughput(run),
            retained=run.retained, retries=run.retries,
        )
        metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.write_chrome_trace(args.trace_out)
    else:
        metrics = end_to_end(run)
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(args.seed),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": metrics,
        "diagnostics": diagnostics(run),
    }
    if tracer is not None and tracer.missing:
        result["missing_targets"] = tracer.missing
    print_result(result)
    if args.out:
        write_json(args.out, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def print_result(result: dict) -> None:
    mode = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"{result['workload']}  seed {result['stamp']['seed']}  "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for title, block in ((mode, result["metrics"]), ("diagnostics", result["diagnostics"])):
        print(f"  {title}:")
        for name, entry in block.items():
            print(f"    {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    if result["trace"]:
        metrics = result["metrics"]
        layers = sum(
            entry["value"] for name, entry in metrics.items()
            if name.endswith(".s") and name != "bench.wall.s"
        )
        print(f"  layer self times + unattributed: {layers:.6f} s "
              f"of {metrics['bench.wall.s']['value']:.6f} s traced wall-clock per cycle")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    for path in result.get("missing_targets", []):
        print(f"  not traced (no longer in the library): {path}")


# ---------------------------------------------------------------- repeat
def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def repeat(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(args.repeat):
        for name in names if index % 2 == 0 else names[::-1]:
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "result.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed + index),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(out),
                ] + (["--tiny"] if args.tiny else [])
                subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
                if not out.is_file():
                    print(f"error: {name} seed {args.seed + index} produced no result",
                          file=sys.stderr)
                    return 1
                runs[name].append(json.loads(out.read_text()))
    hosts = {json.dumps(r["stamp"]["host"], sort_keys=True) for rs in runs.values() for r in rs}
    first = next(iter(runs.values()))[0]["stamp"]
    aggregate = {
        "stamp": {"host": first["host"], "commit": first["commit"]},
        "mixed_hosts": len(hosts) > 1,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": list(range(args.seed, args.seed + args.repeat)),
        "workloads": {},
    }
    for name, results in runs.items():
        metrics = {}
        for block in ("metrics", "diagnostics"):
            for key in results[0][block]:
                values = [r[block][key]["value"] for r in results if key in r[block]]
                metrics[key] = {"unit": results[0][block][key]["unit"], **summarize(values)}
        aggregate["workloads"][name] = {
            "runs": len(results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        print(f"{name}: {len(results)} runs, {aggregate['workloads'][name]['failed']} failed ops")
        for key, entry in metrics.items():
            spread = (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0
            print(f"  {key:<28} median {entry['median']:>14.6g} {entry['unit']:<6} "
                  f"IQR/median {spread:7.2%}")
    write_json(args.out, aggregate)
    return 0


# --------------------------------------------------------------- compare
def judge(base: dict, new: dict, bound: float, better: str) -> str:
    """One metric's verdict: worse, unresolved, better or same."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (base, new)
    )
    wins = all(sign * (n - b) > 0 for n in new["values"] for b in base["values"])
    if change < -bound:
        verdict = "worse"
    elif spread > bound and not wins:
        verdict = "unresolved"
    elif wins or change > spread:
        verdict = "better"
    else:
        verdict = "same"
    return f"{verdict} ({change:+.1%})"


def compare(base_path: str, new_path: str) -> int:
    base, new = (json.loads(Path(p).read_text()) for p in (base_path, new_path))
    for key in ("seconds", "trace", "seeds"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]} vs {new[key]})")
            return 2
    if base["stamp"]["host"] != new["stamp"]["host"] or base.get("mixed_hosts") or new.get("mixed_hosts"):
        print(f"refused: host stamps differ\n  {base['stamp']['host']}\n  {new['stamp']['host']}")
        return 2
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"base {base['stamp']['commit'][:12]} vs change {new['stamp']['commit'][:12]}, "
          f"{len(base['seeds'])} runs each")
    worse = False
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        cells = []
        for spec in bounds:
            b = base["workloads"][name]["metrics"].get(spec["name"])
            n = new["workloads"][name]["metrics"].get(spec["name"])
            if b is None or n is None:
                continue
            verdict = judge(b, n, spec["bound"], spec["better"])
            worse = worse or verdict.startswith("worse")
            cells.append(f"{spec['name']} {verdict}")
        print(f"{name:<18} " + ", ".join(cells))
    return 1 if worse else 0


# ------------------------------------------------------------------ main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="operation time the timed phase runs for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the spans as Chrome trace JSON")
    parser.add_argument("--out", help="write the full result (or aggregate) JSON")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-tests")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    keep_temp_files_in_checkout()
    if args.compare:
        return compare(*args.compare)
    if args.repeat:
        if not args.out:
            parser.error("--repeat needs --out")
        return repeat(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
