"""The repo's end-to-end benchmark: three user journeys in four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload big-listing --seed 1 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

``--trace 0`` times the real CLIs from process start and prints the
end-to-end metrics; ``--trace 1`` runs the same ops in-process with
spans around each layer's public functions, prints the per-layer
metrics and writes the spans to ``.perfbench_out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value": ..., "unit": ...}``).
Lines before it are the environment header, the input shape and the
workload's detail figures.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    """Versions, backend, CPUs and revision: the header on every result."""
    import platform

    from repro.core import kernels

    try:
        from importlib.metadata import version

        numpy = version("numpy")
    except Exception:  # noqa: BLE001 - any failure means "not installed"
        numpy = None
    env = {
        "python": platform.python_version(),
        "numpy": numpy,
        "kernel_backend": kernels.default_backend_name(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
    }
    if os.environ.get("REPRO_KERNELS"):
        env["REPRO_KERNELS"] = os.environ["REPRO_KERNELS"]
    return env


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    from journeys import WORKLOADS, Run
    from spans import write_span_file

    # Byte-compile first, so the first run in a checkout times the same
    # start-up as every later one.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    run = Run(ROOT, workload, seed, seconds)
    bench = WORKLOADS[workload](run)
    env = environment()
    print(json.dumps({"env": env, "workload": workload, "seed": seed,
                      "seconds": seconds, "trace": int(trace)}))
    try:
        result = bench.traced() if trace else bench.timed()
        print(json.dumps({"shape": bench.shape()}))
    finally:
        run.cleanup()
    detail = dict(result["detail"],
                  failed_ratio=run.failed / max(run.attempted, 1))
    if run.references:
        detail.update(reference_s=statistics.median(run.references),
                      reference_runs=len(run.references))
    print(json.dumps({"detail": detail, "notes": run.notes}))
    if trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{workload}-seed{seed}.json"
        write_span_file(path, env, result["spans"])
        print(json.dumps({"span_file": str(path.relative_to(ROOT)),
                          "spans": len(result["spans"])}))
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        metrics = {name: {"value": float(result["layers"].get(name, 0.0)),
                          "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def detail_unit(name: str) -> str:
    """The unit of a detail figure, read off its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process; a table of every metric."""
    status = 0
    for w in BENCHMARK["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"{w['name']}: failed\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = next(json.loads(line)["detail"] for line in lines
                      if line.startswith('{"detail"'))
        print(f"== {w['name']}  correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_ratio={result['failed'] / result['attempted']:.4f}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
        for name, value in detail.items():
            print(f"  {name:40s} {value:>14.6g} {detail_unit(name)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in BENCHMARK["workloads"]]
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=names)
    group.add_argument("--all", action="store_true",
                       help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if opts.all:
        return run_all(opts.seed, opts.seconds, bool(opts.trace))
    return run_one(opts.workload, opts.seed, opts.seconds, bool(opts.trace))


if __name__ == "__main__":
    sys.exit(main())
