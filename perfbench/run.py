"""Run one workload of the IReS benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--fast]

Run it from the root of a checkout: it imports IReS from the checkout's
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (its spans go to
``perfbench/out/trace-<workload>-<seed>.json``).  ``--fast`` shrinks the
inputs for the benchmark's own tests.

Standard output ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (sample counts, host record).  Every result is also appended to
``perfbench/out/history.jsonl``.  Exit codes: 0 when every output check
passed, 1 when one failed, 2 when the checkout has no IReS sources.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 — the clock starts before the imports
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = {
    "serve-chain": "serve_chain",
    "plan-pegasus": "plan_pegasus",
    "cluster-burst": "cluster_burst",
    "musqle-tpch": "musqle_tpch",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="small inputs, for the benchmark's tests")
    return parser.parse_args(argv)


def fresh_import_seconds(module: str, src: Path) -> float:
    """Seconds a fresh interpreter takes to import a workload module."""
    code = ("import sys, time\n"
            "start = time.perf_counter()\n"
            f"sys.path[:0] = {[str(src), str(ROOT)]!r}\n"
            f"import perfbench.{module}\n"
            "print(time.perf_counter() - start)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no IReS sources at {src / 'repro'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported IReS from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from perfbench import harness

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    imported = time.perf_counter() - STARTED

    ctx = harness.Context(seed=args.seed, seconds=args.seconds,
                          trace=bool(args.trace), fast=args.fast, out_dir=OUT)
    outcome = module.run(ctx)
    metrics = dict(outcome.metrics)
    import_seconds = [imported]
    if args.trace:
        units = harness.LAYER_UNITS
    else:
        units = harness.E2E_UNITS
        # imports happen once per process: time three fresh interpreters
        # too, so the import share of set-up is a median like the builds
        import_seconds += [fresh_import_seconds(WORKLOADS[args.workload], src)
                           for _ in range(3)]
        # imports and builds are wall time; a warm-up is made of units of
        # work and comes host-normalized unit by unit
        metrics["setup_s"] = (statistics.median(import_seconds)
                              + statistics.median(outcome.build_seconds)
                              + outcome.warmup_seconds)
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
    if set(metrics) != set(units):
        raise KeyError(f"{args.workload} reported {sorted(metrics)}, "
                       f"expected {sorted(units)}")

    result = {
        "correct": not outcome.errors,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    host = {
        "gitSha": harness.git_sha(ROOT),
        "host": harness.host_fingerprint(),
        "calibrationSeconds": harness.calibration_seconds(),
    }
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "fast": args.fast,
        "importSeconds": import_seconds,
        "buildSeconds": outcome.build_seconds,
        "warmupSeconds": outcome.warmup_seconds,
        **outcome.details, **host,
    }
    harness.append_history(OUT / "history.jsonl", {
        "at": time.time(), "details": details, "result": result})
    for error in outcome.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
