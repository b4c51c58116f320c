"""Benchmark of hbgraphs: three workloads, outputs checked, one JSON result line.

Usage, from the root of the repository:

    python3 hbbench/run.py --workload counting|graph|cli --seed N --seconds S --trace 0|1

``--seconds`` sets how many whole rounds of the workload's fixed schedule
run (each round is calibrated to a fixed share of S on a 2-CPU machine);
the clock never cuts a run short.  With ``--trace 0`` the result carries
the end-to-end metrics, with ``--trace 1`` the per-layer metrics, derived
from spans that are written to ``hbbench/out/`` when the run ends.  Times
are taken to the host's reference speed (see ``hostspeed``).  The
last line of stdout is the result; exit code 2 means the hbgraphs sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh processes timed for setup_s, before and after the schedule so that they
# meet different phases of a shared host's speed; the median is reported
SETUP_STARTS_BEFORE, SETUP_STARTS_AFTER = 5, 4

END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["counting", "graph", "cli"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="make the inputs, warm up and exit (used to time fresh starts)")
    return p.parse_args(argv)


def fresh_start_seconds(args) -> float:
    """Wall time of one new process that makes the inputs, warms up and exits.

    It is not taken to the reference speed: a start is mostly process
    creation and imports, which the reference does not track, and scaling
    made single starts vary more, not less.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def end_to_end(run: dict, speed) -> dict[str, float]:
    """The run's figures, each latency taken to the reference speed by the samples near it."""
    lat = [t * speed.scale_at(start) for start, t in run["latencies"]]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * (statistics.quantiles(lat, n=10, method="inclusive")[8]
                                  if len(lat) > 1 else lat[0]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def at_reference_speed(value: float, unit: str, scale: float) -> float:
    """A time (s, ms) is multiplied by ``scale``, a rate (1/s) divided; other units stay."""
    return {"s": value * scale, "ms": value * scale, "1/s": value / scale}.get(unit, value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hbgraphs" / "__init__.py").is_file():
        print(f"hbbench: no hbgraphs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    workload = workloads.make(args.workload, args.seed, args.seconds)
    workload.warm_up()
    if args.setup_only:
        return 0
    speed = HostSpeed()
    tracer = Tracer(bool(args.trace))
    if args.trace:
        run = workload.run(tracer, speed)
        measured = end_to_end(run, speed)
        layer = dict.fromkeys(workloads.LAYER_UNITS, 0)  # 0: no call into that layer
        layer.update(workload.layer_metrics(tracer))
        metrics = {k: {"value": at_reference_speed(v, workloads.LAYER_UNITS[k], speed.scale()),
                       "unit": workloads.LAYER_UNITS[k]} for k, v in layer.items()}
    else:
        starts = [fresh_start_seconds(args) for _ in range(SETUP_STARTS_BEFORE)]
        run = workload.run(tracer, speed)
        starts += [fresh_start_seconds(args) for _ in range(SETUP_STARTS_AFTER)]
        measured = end_to_end(run, speed) | {"setup_s": statistics.median(starts)}
        metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": run["wrong"] == 0, "attempted": len(workload.ops),
              "failed": run["failed"], "metrics": metrics}

    workloads.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "result": result, "end_to_end": measured,
              "raw_latencies": run["latencies"],
              "reference": list(zip(speed.starts, speed.samples))}
    if not args.trace:
        record["setups_s"] = starts
    (workloads.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(workloads.OUT / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
