"""One workload in one fresh process; prints a single JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Set-up
is timed from the first line of this file, before taxicassini or NumPy is
imported, to the end of the warm-up item.  Times are reported both as wall
seconds and rescaled to nominal machine speed (see probe.py).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import SpeedProbe  # noqa: E402

MIN_PASSES = 3


def run_passes(workload, tally, tracer, probe, seconds: float, min_passes: int):
    """Closed loop: each pass starts when the previous one has finished.

    Returns the wall seconds and the nominal seconds of each pass.
    """
    walls, nominal = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        tracer.begin_pass()
        probe.begin()
        with tracer.span("bench.pass"):
            workload.run_pass(tally, tracer)
        wall, scaled = probe.end(workload.PROBE)
        walls.append(wall)
        nominal.append(scaled)
    return walls, nominal


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="where a traced run writes its spans")
    args = parser.parse_args()

    with SpeedProbe() as probe:
        probe.begin(start=_START)
        import numpy

        from tracing import EXACT_COUNTS, NullTracer, Tracer, per_layer_metrics, share_checks
        from workloads import WORKLOADS, Tally

        null = NullTracer()
        tally = Tally()
        workload = WORKLOADS[args.workload](args.seed, Path.cwd().resolve())
        workload.warm_up(tally, null)
        wall_setup, setup = probe.end("python")
        result = {
            "setup_s": setup,
            "wall_setup_s": wall_setup,
            "numpy": numpy.__version__,
        }
        if args.setup_only:
            pass
        elif args.trace:
            # Half the time untraced, half traced, in this one process: the
            # difference of the two median passes is the tracing overhead.
            plain = run_passes(workload, tally, null, probe, args.seconds / 2, 2)[1]
            tracer = Tracer(time.perf_counter)
            with tracer.installed():
                walls, traced = run_passes(workload, tally, tracer, probe, args.seconds / 2, 2)
            overhead = statistics.median(traced) - statistics.median(plain)
            speed = [n / w for n, w in zip(traced, walls)]
            per_layer, varied, tail = per_layer_metrics(tracer, overhead, speed)
            result.update(
                plain_pass_s=plain,
                traced_pass_s=traced,
                per_layer=per_layer,
                counts={key: per_layer[key] for key in EXACT_COUNTS},
                counts_varied=varied,
                share_checks=share_checks(args.workload, per_layer),
                tail=tail,
            )
            if args.spans_out:
                tracer.write_jsonl(args.spans_out)
        else:
            result["wall_pass_s"], result["pass_s"] = run_passes(
                workload, tally, null, probe, args.seconds, MIN_PASSES
            )
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        probes=tally.probes,
        known_defect=tally.known,
        ok_ratio=tally.ok_ratio(),
        wrong=tally.wrong,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
