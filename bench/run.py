"""Run one benchmark workload against the seva sources in this checkout.

    python3 bench/run.py --workload committed_grid --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see bench/README.md). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The full record, with the machine and library versions, is
written to ``.bench_out/``; a traced run also writes its spans there.
"""

import os

# BLAS is pinned to one thread before numpy is first imported: on two cores
# a small GEMM ran 50x slower with two OpenBLAS threads than with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "seva" / "__init__.py").is_file():
        print(f"no seva sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    import layer_trace
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload '{args.workload}'; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    reference = json.loads((BENCH / "reference.json").read_text()).get(args.workload)
    workload = WORKLOADS[args.workload](args.seed, scratch, reference)
    try:
        reps = harness.measure(workload, args.seconds, trace=bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not any(r.outcome is not None and (r.tracer is not None) == bool(args.trace) for r in reps):
        print("no repetition completed", file=sys.stderr)
        return 1

    attempted, failed = harness.tally(workload, reps)
    if args.trace:
        values = harness.per_layer(reps)
        units = harness.per_layer_units()
    else:
        values = harness.end_to_end(workload, reps)
        units = harness.END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    n_timed = sum(len(v) for r in reps if r.outcome for v in r.outcome.latencies_s.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": [
            {"k": r.k, "traced": r.tracer is not None, "setup_s": r.setup_s, "run_s": r.run_s}
            for r in reps
        ],
        "operations_timed": n_timed,
        "error_rate": failed / attempted,
        "environment": harness.environment(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    traced = [r for r in reps if r.tracer is not None]
    if traced:
        spans = layer_trace.span_records(traced[-1].tracer.spans)
        with (OUT / f"spans-{stem}.jsonl").open("w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    for name, m in metrics.items():
        print(f"{name:56s} {m['value']:>16.6f} {m['unit']}")
    print(
        f"error_rate {record['error_rate']:.6f} ({failed}/{attempted} operations); "
        f"{len(reps)} repetitions, {n_timed} timed operations"
    )
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
