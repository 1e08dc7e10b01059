"""Benchmark of `lielike verify`, the command that checks an instance end to end.

    python3 benchmarks/run.py --workload corpus-small --seed 0 --seconds 36 --trace 0

One process, one client, a closed loop: the operations of a workload run
one after another, each as `lielike.cli.main(["verify", "--json", FILE])`
in-process with stdout and stderr captured.  The set-up imports the program
from `src/` of this checkout, builds the workload's instances from the seed
and writes them as files; it is repeated and its median is `setup_s`.
Then whole passes over the workload repeat while the next one fits in
`--seconds` (at least one pass).

Every time is scaled to a fixed machine speed (speed.py); raw wall times
go to stderr.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` untraced passes are followed by one pass with the layer
wrappers of tracing.py installed; the line carries the per-layer metrics
and the tracing overhead.  Every outcome is checked (checks.py), on the
reference seed also against reference.json, which `--write-reference`
records.  A human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import Outcome, problem
from speed import Speedometer
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS, instance_json, operations

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def import_program():
    """Import `lielike` afresh from this checkout; returns its cli module."""
    for name in [n for n in sys.modules if n == "lielike" or n.startswith("lielike.")]:
        del sys.modules[name]
    import lielike.cli

    return lielike.cli


def write_inputs(ops, work: Path) -> list[str]:
    """Write each operation's instance file the way `lielike generate` does."""
    dumps = sys.modules["lielike.serialize"].dumps
    paths = []
    for op in ops:
        path = work / (op.name.replace("/", "_") + ".json")
        path.write_text(dumps(instance_json(op)), encoding="utf-8")
        paths.append(str(path))
    return paths


def run_op(cli, path: str) -> Outcome:
    out = io.StringIO()
    code = raised = None
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "--json", path])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program is the op's outcome
        raised = type(exc).__name__
    return Outcome(code, raised, out.getvalue())


def run_pass(cli, paths, speed: Speedometer, tracer: Tracer | None = None):
    """One pass over the operations.

    Returns [(outcome, raw seconds, scaled seconds)], the (first span index,
    time scale) of each operation, and the operations whose spans reach
    outside the operation's own wall time.
    """
    results, scales, overruns = [], [], []
    for i, path in enumerate(paths):
        start = len(tracer.spans) if tracer else 0
        outcome, t0, t1, scale = speed.timed(run_op, cli, path)
        results.append((outcome, t1 - t0, (t1 - t0) * scale))
        scales.append((start, scale))
        if tracer and tracer.overrun(start, t0, t1):
            overruns.append(i)
    return results, scales, overruns


def setup(ops, work: Path):
    """Import the program and write the inputs; returns (cli, paths)."""
    cli = import_program()
    return cli, write_inputs(ops, work)


def load_reference(workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help=f"record this workload's outcomes on seed {REFERENCE_SEED}",
    )
    args = parser.parse_args(argv)
    if not (SRC / "lielike" / "__init__.py").is_file():
        log(f"error: the program's source is missing: {SRC / 'lielike'}")
        return 2
    sys.path.insert(0, str(SRC))

    ops = operations(args.workload, args.seed)
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def judge(args, ops, paths, all_passes) -> tuple[list[str], int, int]:
    """Check every outcome; returns (problems, attempted, failed)."""
    texts = [Path(p).read_bytes() for p in paths]
    reference = None if args.write_reference else load_reference(args.workload, args.seed)
    problems: list[str] = []
    attempted = failed = 0
    for i, op in enumerate(ops):
        ref = reference.get(op.name) if reference else None
        if ref and ref["input_sha256"] != hashlib.sha256(texts[i]).hexdigest():
            problems.append(f"input drift: {op.name} is not the recorded input")
            ref = None
        instance = json.loads(texts[i])
        if len({json.dumps(p[i][0].record()) for p in all_passes}) > 1:
            problems.append(f"{op.name}: outcome differs between passes")
        for p in all_passes:
            outcome = p[i][0]
            attempted += 1
            wrong = problem(op, outcome, instance, ref)
            failed += bool(wrong or outcome.raised)
            if wrong:
                problems.append(f"{op.name}: {wrong}")
        if all_passes[0][i][0].raised:
            log(f"note: {op.name} raised {all_passes[0][i][0].raised}"
                " (counted as failed)")
    return list(dict.fromkeys(problems)), attempted, failed


def write_reference(workload, ops, paths, first_pass) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {
        "seed": REFERENCE_SEED, "workloads": {}}
    entries = {}
    for op, path, (outcome, *_) in zip(ops, paths, first_pass):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        entries[op.name] = {"input_sha256": digest, **outcome.record()}
    data["workloads"][workload] = entries
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def measure(args, ops, work: Path) -> int:
    speed = Speedometer()
    setups = [speed.timed(setup, ops, work) for _ in range(SETUP_REPEATS)]
    (cli, paths), *_ = setups[-1]

    passes, start = [], time.perf_counter()
    # a traced pass takes longer than an untraced one: leave room for it
    reserve = 3 if args.trace else 1
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(cli, paths, speed)[0])
        now = time.perf_counter()
        if now - start + reserve * (now - pass_start) > args.seconds:
            break
    walls = [sum(scaled for *_, scaled in p) for p in passes]
    all_passes = list(passes)
    if args.trace:
        tracer = Tracer(speed.now)
        with tracer.installed():
            traced, scales, overruns = run_pass(cli, paths, speed, tracer)
        all_passes.append(traced)
        setup_tracer = Tracer(speed.now)
        with setup_tracer.installed():
            *_, setup_scale = speed.timed(write_inputs, ops, work)

    problems, attempted, failed = judge(args, ops, paths, all_passes)
    if args.write_reference:
        if problems or args.seed != REFERENCE_SEED:
            log(f"error: reference not written (needs seed {REFERENCE_SEED}"
                " and outcomes that pass every check)")
            return 1
        write_reference(args.workload, ops, paths, passes[0])
        log(f"wrote {REFERENCE.name} entries for {args.workload}")

    raw_walls = [sum(raw for _, raw, _ in p) for p in passes]
    log(f"{args.workload} seed {args.seed}: {len(passes)} untraced passes of"
        f" {len(ops)} ops; raw wall s {[round(w, 3) for w in raw_walls]},"
        f" scaled {[round(w, 3) for w in walls]}")
    if args.trace:
        metrics, table = tracer.layer_metrics(scales)
        log("spans of the traced pass by name: self s, calls, total s (scaled)")
        for self_s, calls, total, name in table:
            log(f"  {self_s:10.4f} {calls:8d} {total:10.4f}  {name}")
        metrics["generate.instance_s"] = setup_tracer.layer_metrics(
            ((0, setup_scale),))[0]["generate.instance_s"]
        traced_wall = sum(scaled for *_, scaled in traced)
        metrics["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
        units = {m: u for m, u, *_ in LAYER_METRICS}
        problems += [f"self-test: spans of {ops[i].name} exceed its wall time"
                     for i in overruns]
        # a program change may rightly remove a function or all calls to
        # it, so these are warnings, not wrong outputs
        for name in tracer.missing:
            log(f"warning: {name} is not traced: the program no longer has it")
        for m, _, _, _, on in LAYER_METRICS:
            if args.workload in on and not metrics[m] > 0:
                log(f"warning: self-test: {m} is 0 on {args.workload}")
        if sum(metrics[m] for m in units if m.endswith(".self_s")) > traced_wall:
            problems.append("self-test: layer self times exceed the traced pass")
        log(f"traced pass {traced_wall:.3f} s (scaled)")
    else:
        per_op = [statistics.median(p[i][2] for p in passes) for i in range(len(ops))]
        deciles = statistics.quantiles(per_op, n=10, method="inclusive")
        metrics = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * deciles[4],
            "op_p90_ms": 1000 * deciles[8],
            "setup_s": statistics.median((t1 - t0) * k for _, t0, t1, k in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        log(f"op latency: per-op medians of {len(ops)} ops"
            f" ({len(ops) // 10} beyond p90); ok_frac base: {attempted} ops")
    for line in problems[:20]:
        log(line)
    for m, v in metrics.items():
        log(f"  {m:34s} {v:.6g} {units[m]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
