"""Start-up and import attribution from fresh interpreters.

Each CLI module is imported in a new interpreter under ``-X importtime``.
Its cumulative import time is the CLI's import cost; the per-module
self times are summed per ``repro`` subpackage and for ``numpy``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: CLI name -> module, for the ``cli.import_s.<name>`` metrics.
CLI_MODULES = {
    "gprof": "repro.cli.gprof_cli",
    "vm": "repro.cli.vm_cli",
    "pgo": "repro.cli.pgo_cli",
    "serve": "repro.cli.serve_cli",
}

#: ``repro`` subpackages reported as ``cli.import_pkg_s.<name>``;
#: ``top`` is ``repro`` itself plus its plain modules.
PACKAGES = (
    "top", "baseline", "check", "cli", "core", "fleet", "gmon", "kernel",
    "lang", "machine", "pipeline", "pyprof", "report", "resilience",
    "serve", "stacks",
)


def _importtime(modules: list[str], env: dict) -> list[tuple[str, int, int]]:
    """(module, self us, cumulative us) for one fresh-interpreter import."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import " + ", ".join(modules)],
        env=env, capture_output=True, text=True, check=True,
    )
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        rows.append((name.strip(), int(self_us), int(cum_us)))
    return rows


def _bucket(module: str) -> str | None:
    if module == "numpy" or module.startswith("numpy."):
        return "numpy"
    if module == "repro" or module.startswith("repro."):
        parts = module.split(".")
        if len(parts) > 1 and parts[1] in PACKAGES:
            return parts[1]
        return "top"
    return None


def import_metrics(clis: list[str], env: dict, repeats: int = 3) -> dict:
    """The ``cli.*`` per-layer metrics, each the median of ``repeats``.

    ``clis`` are the workload's CLIs: their modules are imported
    together for the per-subpackage split.  The per-CLI totals cover
    all four CLIs on every workload.
    """
    interp = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append(time.perf_counter() - t0)
    out = {"cli.interp_s": statistics.median(interp)}
    for cli, module in CLI_MODULES.items():
        totals = []
        for _ in range(repeats):
            rows = _importtime([module], env)
            totals.append(next(c for m, _, c in rows if m == module) / 1e6)
        out[f"cli.import_s.{cli}"] = statistics.median(totals)
    per_run = []
    for _ in range(repeats):
        sums = dict.fromkeys(("numpy",) + PACKAGES, 0)
        for module, self_us, _cum in _importtime(
            [CLI_MODULES[c] for c in clis], env
        ):
            bucket = _bucket(module)
            if bucket is not None:
                sums[bucket] += self_us / 1e6
        per_run.append(sums)
    out["cli.import_numpy_s"] = statistics.median(r["numpy"] for r in per_run)
    for pkg in PACKAGES:
        out[f"cli.import_pkg_s.{pkg}"] = statistics.median(
            r[pkg] for r in per_run
        )
    return out
