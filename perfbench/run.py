"""quiverfilt benchmark: certified workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload endtower-qq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit and sample count.  See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(HERE, "out")
SETUP_PROCESSES = 7

from clock import Clock, Sample  # noqa: E402  (stdlib only; no quiverfilt)


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import quiverfilt from this checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "quiverfilt", "__init__.py")):
        _fail(f"no quiverfilt sources under {SRC}")
    sys.path.insert(0, SRC)
    import quiverfilt

    if os.path.dirname(os.path.dirname(os.path.abspath(quiverfilt.__file__))) != SRC:
        _fail(f"imported quiverfilt from {quiverfilt.__file__}, not {SRC}")


def _load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def setup_child(workload: str, seed: int) -> None:
    """Fresh-process set-up: import, generate inputs, certify; print the time."""
    with Clock(period=0.01) as clock:
        _, sample = clock.measure(_child_setup, workload, seed)
    clock.scale([sample])
    print(json.dumps({"raw_s": sample.raw_s, "scaled_s": sample.scaled_s}))


def _child_setup(workload: str, seed: int) -> None:
    _import_program()
    import workloads

    workloads.WORKLOADS[workload]().setup(seed)


def measure_setup(workload: str, seed: int) -> list[Sample]:
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            _fail(f"set-up process failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(Sample(0.0, 0.0, out["raw_s"], out["scaled_s"]))
    return samples


def _format(value: float) -> str:
    return f"{value:.6g}"


def bench(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Run one workload and print its metrics; return the result object."""
    import harness
    import workloads

    expected = reference["workloads"][name]["digests"].get(str(seed))
    setup = [] if trace else measure_setup(name, seed)
    workload = workloads.WORKLOADS[name]()
    with Clock() as clock:
        inputs = workload.setup(seed)
        result = harness.run(clock, workload.operations(inputs), seconds, expected, trace)
    errors = result.problems("error")
    refusals = result.problems("refused")
    attempted = result.attempted
    recorded = "no recorded digest for this seed" if expected is None else (
        "matches the recorded digest" if harness.digest_of(expected) == result.digest
        else "DIFFERS from the recorded digest")
    print(f"{name} seed={seed} trace={int(trace)}: {workload.describe(inputs)}")
    print(f"  digest {result.digest} ({recorded}); {len(result.passes)} untraced and "
          f"{len(result.traced)} traced passes of {len(result.passes[0].samples)} operations")
    print(f"  error_ratio {len(errors) / attempted:.6g} ({len(errors)} of {attempted} operations)"
          f"  refusal_ratio {len(refusals) / attempted:.6g} ({len(refusals)} of {attempted})")
    for line in (errors + refusals)[:10]:
        print("  ! " + line.replace("\n", "\n    "))
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in harness.per_layer(result).items()}
        for k, m in metrics.items():
            print(f"  {k:48s} {_format(m['value']):>12s} {m['unit']}")
        os.makedirs(SPANS_DIR, exist_ok=True)
        with open(os.path.join(SPANS_DIR, f"{name}.spans.jsonl"), "w") as out:
            out.write(json.dumps({"columns": harness.Tracer.COLUMNS}) + "\n")
            for n, (_, tracer) in enumerate(result.traced):
                tracer.write(out, n)
    else:
        metrics = {}
        for k, (value, unit, count, raw) in harness.end_to_end(result, setup, workload.chained).items():
            metrics[k] = {"value": value, "unit": unit}
            extra = "" if raw is None else f", unscaled {_format(raw)}"
            print(f"  {k:14s} {_format(value):>12s} {unit:4s} (n={count}{extra})")
    failed = len(errors) + len(refusals)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "max_bits": "bits", "bytes": "bytes"}.get(
        last, "ratio" if last.endswith(("_frac", "_ratio")) else "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="endtower-qq, preproj-gf101, sweep-qq, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    _import_program()
    import workloads

    reference = _load_reference()
    seed = reference["default_seed"] if args.seed is None else args.seed
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    if len(names) == 1:
        result = bench(names[0], seed, args.seconds, bool(args.trace), reference)
    else:
        result = _bench_all(names, seed, args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _bench_all(names, seed, args) -> dict:
    """Each workload in a fresh process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            _fail(f"{name} failed:\n{proc.stderr}")
        one = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return merged


if __name__ == "__main__":
    sys.exit(main())
