"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_ours_c --seed 0 \
        --seconds 10 --trace 0

``--workload all`` runs every workload in turn, each in its own
process.  Human-readable report lines come first; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  The exit code is 1 when a
correctness check failed and 2 when the program under test is missing.

``--record-expected SEEDS`` (e.g. ``0-9``) re-runs the training recipe
at those seeds and rewrites ``expected.json``; do that only after a
deliberate numerical change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", metavar="SEEDS", default=None)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in its own process; one merged result line."""
    from perfbench import catalog

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, _ in catalog.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {"correct": False}
        merged["correct"] &= bool(result.get("correct")) \
            and proc.returncode == 0
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for metric, entry in result.get("metrics", {}).items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


#: One BLAS thread: the program's matrix products are small, and an
#: idle OpenBLAS worker spins on the second core (about a third of the
#: training workload's CPU time, for no change in wall time), where it
#: competes with the program's other threads and processes.
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Before numpy is imported, here or in a server process.
    os.environ.update(SINGLE_THREADED_BLAS)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test (src/repro) is missing "
              f"from {ROOT}", file=sys.stderr)
        return 2
    # Import the benchmark as a package, not as loose modules.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
    from perfbench import catalog, common

    if args.record_expected is not None:
        from perfbench import train

        low, _, high = args.record_expected.partition("-")
        table = train.record(range(int(low), int(high or low) + 1))
        train.EXPECTED_FILE.write_text(
            json.dumps({train.NAME: table}, indent=2) + "\n")
        return 0
    if args.workload == "all":
        return _run_all(args)
    workloads = dict(catalog.WORKLOADS)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(workloads)} or 'all'", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # Temporary files (artifacts, the servers' TMPDIR) stay in the
    # checkout and are removed on the way out.
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ.pop("REPRO_FAULTS", None)
    job = common.Job(workload=args.workload, seed=args.seed,
                     seconds=args.seconds, trace=bool(args.trace),
                     root=ROOT, tmp=tmp)
    common.note(f"provenance: {json.dumps(common.provenance())}")
    try:
        outcome = _workload_module(args.workload).run(job)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    units = catalog.units()
    if job.trace:
        names = catalog.per_layer_names()
        values = {name: outcome.layers.get(name, 0.0) for name in names}
    else:
        names = catalog.end_to_end_names()
        values = outcome.end_to_end
        missing = [name for name in names if name not in values]
        outcome.check(not missing, f"metrics not measured: {missing}")
    for name in names:
        if name in values:
            count = (f" (p{catalog.TAIL_PCT[job.workload]:g}, "
                     f"{outcome.samples} samples)" if name == "tail_ms"
                     else f" ({outcome.samples} samples)"
                     if name == "p50_ms" else "")
            common.note(f"  {name} = {values[name]:.6g} {units[name]}{count}")
    for failure in outcome.failures:
        common.note(f"CHECK FAILED: {failure}")
    correct = not outcome.failures
    common.emit_result(
        correct, max(outcome.attempted, 1), outcome.failed,
        {name: common.metric(values[name], units[name])
         for name in names if name in values})
    return 0 if correct else 1


def _workload_module(name: str):
    from perfbench import http_load, serving, train

    return {"train_ours_c": train, "serve_open_loop": serving,
            "http_routed": http_load}[name]


if __name__ == "__main__":
    sys.exit(main())
