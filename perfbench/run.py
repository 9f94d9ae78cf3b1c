"""taxicassini benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is used from ./src as it
stands (nothing is installed).  Each run starts fresh single-threaded
processes: a few that only set up (import, inputs, one warm-up item), whose
median is setup_s, and one that sets up and then runs closed-loop passes
for --seconds.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Machine facts and the result are also appended to perfbench/out/results.jsonl,
and a traced run writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_ONLY_RUNS = 4
DEADLINE_S = 170.0  # the whole run, set-up processes included


def _machine(seed: int, numpy_version: str) -> dict:
    llc = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in sorted(cache_dir.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if levels:
        llc = max(levels)[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "llc": llc,
        "seed": seed,
    }


def _code_digest(root: Path) -> str:
    """Digest of everything a run depends on: package, fixtures, benchmark."""
    digest = hashlib.sha256()
    files = sorted(
        [*(root / "src" / "taxicassini").glob("*.py"), root / "fixtures" / "instances.jsonl"]
        + [path for path in HERE.iterdir() if path.is_file()]
    )
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the workload process")
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=False,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _previous_counts(results: Path, key: dict) -> dict | None:
    """Exact counts of the latest earlier traced run of the same code and seed."""
    if not results.is_file():
        return None
    found = None
    with open(results, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if all(record.get(k) == v for k, v in key.items()) and "counts" in record:
                found = record["counts"]
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description="taxicassini benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not (root / "src" / "taxicassini" / "__init__.py").is_file():
        print("error: no taxicassini sources under ./src; run from a checkout root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        setups = [_worker(common + ["--setup-only"], env, deadline) for _ in range(SETUP_ONLY_RUNS)]
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans-out", str(spans_path)]
        res = _worker(run_args, env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res)

    machine = _machine(args.seed, res["numpy"])
    correct = not res["wrong"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "code": _code_digest(root),
        "machine": machine,
    }
    notes = []
    if args.trace:
        per_layer = res["per_layer"]
        counts = res["counts"]
        previous = _previous_counts(
            out_dir / "results.jsonl",
            {k: record[k] for k in ("workload", "seed", "trace", "code")},
        )
        if res["counts_varied"]:
            correct = False
            notes.append(f"FLAG exact counts varied between passes: {res['counts_varied']}")
        if previous is not None and previous != counts:
            correct = False
            differ = sorted(k for k in counts if previous.get(k) != counts[k])
            notes.append(f"FLAG exact counts differ from the previous run of this code and seed: {differ}")
        record["counts"] = counts
        record["share_checks"] = res["share_checks"]
        notes += [f"share check {'ok' if ok else 'DISAGREES'}: {claim}" for claim, ok in record["share_checks"]]
        notes.append(f"cassini.build_curves.us_tail is {res['tail']}")
        notes.append(
            f"trace.overhead_s: traced median pass {statistics.median(res['traced_pass_s']):.4f} s "
            f"- untraced {statistics.median(res['plain_pass_s']):.4f} s"
        )
        notes.append(f"spans written to {spans_path.relative_to(root)}")
        values = per_layer
    else:
        passes = res["pass_s"]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "pass_s": statistics.median(passes),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": res["ok_ratio"],
        }
        notes.append(
            f"pass_s is the median of {len(passes)} passes at nominal speed; "
            f"the median wall time was {statistics.median(res['wall_pass_s']):.4f} s"
        )
        notes.append(
            f"setup_s is the median of {len(setups)} processes at nominal speed; "
            f"the median wall time was {statistics.median(r['wall_setup_s'] for r in setups):.4f} s"
        )
    listed = bench["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in listed) != sorted(values):
        print(f"error: BENCHMARK.json and the run disagree on metric names: {sorted(values)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    if res["probes"]:
        notes.append(
            f"{res['known_defect']} of {res['probes']} scale-stress specs failed, the known defect "
            "(AssemblyError or sampled residual above RESIDUAL_RTOL); they count in ok_ratio, "
            "not in attempted or failed"
        )
    for what in res["wrong"][:10]:
        notes.append(f"WRONG {what}")
    if len(res["wrong"]) > 10:
        notes.append(f"WRONG ... {len(res['wrong']) - 10} more")

    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print("machine: " + json.dumps(machine))
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
