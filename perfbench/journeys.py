"""The four workloads: timed runs from process start, and traced runs.

A timed run drives the real CLIs as separate processes, exactly as a
user types them, and reports the end-to-end metrics.  A traced run
(``--trace 1``) drives the same ops in-process through each CLI's
``main(argv)`` (the server on a thread), first untraced and then with
the :class:`~spans.Tracer` wrappers installed, and reports the
per-layer metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import http.client
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import inputs
from imports import CLI_MODULES, import_metrics
from spans import SpanIndex, Tracer

#: ``--help`` invocations per CLI when timing set-up.
HELP_REPEATS = 5
#: Server spawns timed for the ``serve-mixed`` set-up.
SERVE_SPAWNS = 5
#: Every ``FLAT_EVERY``-th request of a ``serve-mixed`` client is a query.
FLAT_EVERY = 12
SERVE_CLIENTS = 2
#: Requests per client in one ``serve-mixed`` window between reference
#: runs: three rounds of uploads and a query.  One untimed window first
#: gives each tenant every upload template (``inputs.UPLOAD_TEMPLATES``).
SERVE_WINDOW_REQUESTS = 3 * FLAT_EVERY
BIG_LISTING_FILES = 64
PGO_ROUNDS = "2"

#: The reference process.  It runs none of the program's code: an
#: interpreter start, third-party and standard-library imports of the
#: kind every CLI also pays for, and a fixed pure-Python loop.  Its wall
#: time tracks the host's speed for the work the ops do.
REFERENCE = [sys.executable, "-c", """\
import argparse, asyncio, json
try:
    import numpy
except ImportError:
    pass
d = {}
acc = 0
for i in range(200000):
    k = i & 1023
    d[k] = d.get(k, 0) + i
    acc += len(str(i)) * (i % 7)
"""]
#: A fixed scale in seconds: about the reference's median wall time on
#: the shared 2-vCPU VM the bounds were set on (Python 3.11, numpy 2),
#: where it ranged over 0.18-0.48 s within an hour.  A time divided by
#: the reference runs around it, times this, reads as seconds on that
#: host at that typical speed.
REFERENCE_S = 0.30

STAGE_NAMES = ("symbolize", "exclude", "apportion", "build-graph", "augment",
               "break-cycles", "number", "propagate", "assemble")
LANG_COUNTERS = (
    "branch-order.reordered_ifs", "branch-order.rotated_loops",
    "inline.candidates", "inline.cold_skipped", "inline.sites_expanded",
    "inline.routines_removed", "hot-cold-layout.functions_moved",
    "hot-cold-layout.cold_routines", "const-fold.folded",
    "dead-code.dead_statements", "dead-code.pruned_branches",
    "dead-code.removed_loops",
)
#: The analysis cache's stage-group kinds (``repro.pipeline.GROUPS``).
GROUP_KINDS = frozenset({"arcs", "self_times", "numbered", "prop", "profile"})


class Run:
    """One benchmark run's settings, scratch directory and bookkeeping."""

    def __init__(self, root: Path, workload: str, seed: int,
                 seconds: int) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.work = (root / ".perfbench_work"
                     / f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.peak_rss_kb = 0
        #: Wall seconds of every reference run, for the detail line.
        self.references: list[float] = []
        self._reference: float | None = None
        self._lock = threading.Lock()

    def cli(self, cli: str, argv: list[str]) -> tuple[float, int, bytes]:
        """Run one CLI as a new process: (wall seconds, status, stdout)."""
        with tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", CLI_MODULES[cli], *argv],
                env=self.env, cwd=self.work, stdout=subprocess.PIPE,
                stderr=err,
            )
            out = proc.stdout.read()
            proc.stdout.close()
            status = self.reap(proc)
            elapsed = time.perf_counter() - t0
            if status:
                err.seek(0)
                self.notes.append(
                    f"{cli} {' '.join(argv)} exited {status}: "
                    f"{err.read().decode(errors='replace')[-300:]}"
                )
        return elapsed, status, out

    def reap(self, proc: subprocess.Popen,
             timeout: float | None = None) -> int | None:
        """Wait for one of the program's processes; keep its peak RSS.

        Returns its exit status, or None if ``timeout`` seconds pass first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while proc.returncode is None:
            pid, status, usage = os.wait4(
                proc.pid, 0 if deadline is None else os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            elif time.monotonic() > deadline:
                return None
            else:
                time.sleep(0.01)
        return proc.returncode

    def reference(self) -> float:
        """Wall seconds of one run of the reference process."""
        t0 = time.perf_counter()
        subprocess.run(REFERENCE, cwd=self.work, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def against_reference(self, thunk):
        """Call ``thunk`` between two reference runs.

        Returns ``thunk``'s result and the mean wall time of the reference
        runs just before and just after it.  Consecutive calls share the
        reference run between them.  Dividing a time by that mean cancels
        the host's speed, which on a shared host drifts by a fifth or
        more within minutes.
        """
        if self._reference is None:
            self._reference = self.reference()
        before = self._reference
        result = thunk()
        self._reference = after = self.reference()
        self.references.append(after)
        return result, (before + after) / 2

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, why: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(why)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            self.work.parent.rmdir()


def inproc(cli: str, argv: list[str]) -> tuple[int, bytes]:
    """Run one CLI's ``main(argv)`` in this process: (status, stdout)."""
    main = importlib.import_module(CLI_MODULES[cli]).main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue().encode()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q`` quantile (0..1) by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def beyond(values, q: float) -> int:
    """How many samples lie above the ``q`` quantile's rank."""
    return len(values) - math.ceil(q * len(values))


# -- the CLI workloads --------------------------------------------------------


class CliWorkload:
    """A closed loop of one client running one op after another.

    Subclasses make their inputs in :meth:`setup` and describe op ``i``
    by :meth:`steps` (CLI invocations run in order) and :meth:`check`
    (whether the outputs are right).
    """

    clis: tuple[str, ...] = ()
    #: Ops run in whole multiples of this many, so every input is
    #: represented equally.
    cycle = 1

    def __init__(self, run: Run) -> None:
        self.run = run

    def setup(self) -> None:
        raise NotImplementedError

    def shape(self) -> dict:
        raise NotImplementedError

    def steps(self, i: int) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, i: int, outputs: list[tuple[int, bytes]]) -> str | None:
        """None when op ``i``'s outputs are right, else what is wrong."""
        raise NotImplementedError

    def extra_metrics(self) -> dict:
        return {}

    # -- one op, two ways ----------------------------------------------------

    def op_timed(self, i: int) -> float:
        t0 = time.perf_counter()
        outputs = [self.run.cli(cli, argv)[1:] for cli, argv in self.steps(i)]
        elapsed = time.perf_counter() - t0
        self._checked(i, outputs)
        return elapsed

    def op_inproc(self, i: int, tracer: Tracer | None = None) -> float:
        def body():
            return [inproc(cli, argv) for cli, argv in self.steps(i)]

        t0 = time.perf_counter()
        if tracer is None:
            outputs = body()
        else:
            with tracer.op(i):
                outputs = tracer.timed("op", body)()
        elapsed = time.perf_counter() - t0
        self._checked(i, outputs)
        return elapsed

    def _checked(self, i: int, outputs) -> None:
        self.run.attempt()
        problem = self.check(i, outputs)
        if problem:
            self.run.fail(f"op {i}: {problem}")

    def loop(self, op, seconds: float) -> tuple[list, float]:
        """Run ops until ``seconds`` pass and a cycle completes."""
        times: list = []
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while time.perf_counter() < deadline or len(times) % self.cycle:
            times.append(op(len(times)))
        return times, time.perf_counter() - t0

    # -- the two kinds of run ------------------------------------------------

    def timed(self) -> dict:
        self.setup()
        helps = [
            self.run.against_reference(
                lambda cli=cli: self.run.cli(cli, ["--help"])[0])
            for _ in range(HELP_REPEATS) for cli in self.clis
        ]
        runs, _ = self.loop(
            lambda i: self.run.against_reference(lambda: self.op_timed(i)),
            self.run.seconds)
        # Each input's median op time, as a share of the reference.
        keyed: dict[int, list[float]] = {}
        for i, (elapsed, ref) in enumerate(runs):
            keyed.setdefault(i % self.cycle, []).append(elapsed / ref)
        op_ref = statistics.fmean(median(v) for v in keyed.values())
        times = [elapsed for elapsed, _ in runs]
        metrics = {
            "setup_s": (REFERENCE_S * median([e / r for e, r in helps]),
                        "s"),
            "ops_per_s": (1 / (REFERENCE_S * op_ref), "1/s"),
            "peak_rss_mb": (self.run.peak_rss_kb / 1024, "MiB"),
        }
        detail = {"ops": len(times), "op_p50_s": median(times),
                  "wall_ops_per_s": len(times) / sum(times),
                  "setup_wall_s": median([e for e, _ in helps]),
                  "setup_samples": len(helps)}
        detail.update(self.extra_metrics())
        return {"metrics": metrics, "detail": detail}

    def traced(self) -> dict:
        self.setup()
        layers = import_metrics(list(self.clis), self.run.env)
        self.op_inproc(0)  # warm-up: lazy imports and first-call set-up
        half = self.run.seconds / 2
        plain, _ = self.loop(self.op_inproc, half)
        tracer = Tracer(self.run.work)
        install(tracer)
        try:
            traced, _ = self.loop(lambda i: self.op_inproc(i, tracer), half)
        finally:
            tracer.close()
        spans = tracer.collect()
        layers.update(layer_metrics(SpanIndex(spans), len(traced)))
        layers["trace.overhead_ratio"] = median(traced) / median(plain)
        return {"layers": layers, "spans": spans,
                "detail": {"plain_ops": len(plain), "traced_ops": len(traced)}}


class VmJourney(CliWorkload):
    """``repro-vm run --profile`` then ``repro-gprof`` on a canned program."""

    clis = ("vm", "gprof")

    def setup(self) -> None:
        from repro.machine.programs import PROGRAMS

        golden = self.run.root / "tests" / "golden"
        self.golden = {}
        for name in sorted(PROGRAMS):
            # set-up is not timed, so `repro-vm asm` runs in-process
            base = str(self.run.work / name)
            with open(f"{base}.s", "w") as f:
                f.write(PROGRAMS[name]())
            status, _ = inproc("vm", ["asm", f"{base}.s", "-o",
                                      f"{base}.vmexe", "--profile",
                                      "--name", name])
            if status:
                raise RuntimeError(f"repro-vm asm {name} failed")
            for variant in inputs.VM_VARIANTS:
                self.golden[name, variant] = (
                    golden / f"{name}.{variant}.txt"
                ).read_bytes()
        self.pairs = inputs.vm_pairs(self.run.seed, PROGRAMS)

    def shape(self) -> dict:
        return {"programs": len(self.pairs) // 2, "pairs": len(self.pairs),
                "sizes": "canned defaults"}

    def steps(self, i):
        name, variant = self.pairs[i % len(self.pairs)]
        exe = str(self.run.work / f"{name}.vmexe")
        gmon = str(self.run.work / "gmon.out")
        gprof = [exe, gmon] + (["--static"] if variant == "static" else [])
        return [("vm", ["run", exe, "--profile", "--gmon", gmon]),
                ("gprof", gprof)]

    def check(self, i, outputs):
        pair = self.pairs[i % len(self.pairs)]
        if any(status for status, _ in outputs):
            return f"{pair} exited non-zero"
        if outputs[1][1] != self.golden[pair]:
            return f"{pair} listing differs from tests/golden"
        return None


class BigListing(CliWorkload):
    """``repro-gprof SYMS DIR/`` summing 64 files of a 2000-routine program."""

    clis = ("gprof",)

    def setup(self) -> None:
        from functools import reduce

        from repro.core import AnalysisOptions, SymbolTable, analyze, kernels
        from repro.core.profiledata import merge_profiles
        from repro.gmon import read_gmon
        from repro.report import format_flat_profile, format_graph_profile

        self.graph = inputs.call_graph(self.run.seed)
        self.syms = self.run.work / "syms.json"
        self.syms.write_text(self.graph.symbols_json())
        self.dir = self.run.work / "fleet"
        self.dir.mkdir()
        paths = []
        for i, blob in enumerate(
            inputs.listing_files(self.graph, self.run.seed, BIG_LISTING_FILES)
        ):
            paths.append(self.dir / f"run-{i:03d}.gmon")
            paths[-1].write_bytes(blob)
        # The reference: the repo's two spec paths, the pure-Python
        # kernel backend and a pairwise merge_profiles fold.
        kernels.set_default_backend("python")
        try:
            data = reduce(
                lambda a, b: merge_profiles([a, b]),
                [read_gmon(p) for p in paths],
            )
            profile = analyze(data, SymbolTable.load(self.syms),
                              AnalysisOptions())
            self.reference = "\n".join([
                format_graph_profile(profile), format_flat_profile(profile)
            ]).encode()
        finally:
            kernels.set_default_backend(None)

    def shape(self) -> dict:
        return dict(self.graph.shape(), files=BIG_LISTING_FILES,
                    arc_share_per_file=inputs.LISTING_ARC_SHARE)

    def steps(self, i):
        return [("gprof", [str(self.syms), str(self.dir) + "/"])]

    def check(self, i, outputs):
        status, out = outputs[0]
        if status:
            return "repro-gprof exited non-zero"
        if out != self.reference:
            return "listing differs from the in-process reference"
        return None


class Pgo(CliWorkload):
    """``repro-pgo P.rl --rounds 2 --json --asm A.s`` over five programs."""

    clis = ("pgo",)
    cycle = len(inputs.PGO_PROGRAMS)

    def setup(self) -> None:
        from repro.lang import compile_source
        from repro.lang.programs import REL_PROGRAMS
        from repro.machine import make_cpu

        self.order = inputs.pgo_order(self.run.seed)
        self.expected = {}
        for name, size in self.order:
            text = REL_PROGRAMS[name](**size)
            (self.run.work / f"{name}.rl").write_text(text)
            cpu = make_cpu(compile_source(text, name=f"{name}.rl"),
                           engine="reference")
            cpu.run()
            self.expected[name] = list(cpu.output)
        self.asm: dict[str, bytes] = {}
        self.ratio: dict[str, float] = {}
        self.instrs: dict[str, int] = {}

    def shape(self) -> dict:
        return {"programs": {n: s for n, s in self.order},
                "rounds": int(PGO_ROUNDS)}

    def steps(self, i):
        base = str(self.run.work / self.order[i % len(self.order)][0])
        return [("pgo", [f"{base}.rl", "--rounds", PGO_ROUNDS, "--json",
                         "--asm", f"{base}.final.s"])]

    def check(self, i, outputs):
        name = self.order[i % len(self.order)][0]
        status, out = outputs[0]
        if status:
            return f"{name}: repro-pgo exited {status}"
        report = json.loads(out)
        if not all(r["identical"] for r in report["rounds"]):
            return f"{name}: a round changed observable behaviour"
        if report["output"] != self.expected[name]:
            return f"{name}: output differs from the reference engine"
        asm = (self.run.work / f"{name}.final.s").read_bytes()
        if self.asm.setdefault(name, asm) != asm:
            return f"{name}: --asm bytes differ between two ops"
        if name not in self.ratio:
            from repro.machine import assemble

            self.ratio[name] = (report["cycles_final"]
                                / report["cycles_baseline"])
            self.instrs[name] = len(
                assemble(asm.decode(), name=name).instructions)
        return None

    def extra_metrics(self) -> dict:
        ratios = list(self.ratio.values())
        return {
            "pgo_cycles_ratio": math.exp(
                sum(math.log(r) for r in ratios) / len(ratios)),
            "pgo_code_instrs": sum(self.instrs.values()),
        }


# -- the serve workload -------------------------------------------------------


class ServerThread:
    """A ReproServer on its own thread's event loop (for traced runs)."""

    def __init__(self, config) -> None:
        self.config = config
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> tuple[str, int]:
        self._thread.start()
        if not self._started.wait(30):
            raise RuntimeError("server thread did not start")
        return self.addr

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        from repro.serve import ReproServer

        self.server = ReproServer(self.config)
        self.addr = await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started.set()
        await self._stop.wait()
        # the kill -9 shape: no checkpoint, the journal is all recovery gets
        self.server._server.close()
        for store in self.server.tenants.values():
            store.close()

    def kill(self) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


class ServeMixed:
    """Two agent threads uploading; every 12th request is a ``/flat`` query."""

    clis = ("serve",)

    def __init__(self, run: Run) -> None:
        self.run = run

    def setup(self) -> None:
        self.graph = inputs.call_graph(self.run.seed)
        self.syms = self.run.work / "syms.json"
        self.syms.write_text(self.graph.symbols_json())
        self.uploads = inputs.Uploads(self.graph, self.run.seed)
        self.acked = {t: [] for t in range(SERVE_CLIENTS)}
        self.next_index = [0] * SERVE_CLIENTS

    def shape(self) -> dict:
        return dict(self.graph.shape(),
                    arc_share_per_upload=inputs.UPLOAD_ARC_SHARE,
                    clients=SERVE_CLIENTS, flat_every=FLAT_EVERY)

    @staticmethod
    def tenant(t: int) -> str:
        return f"tenant-{t}"

    # -- the client side -----------------------------------------------------

    def clients(self, host: str, port: int, seconds: float,
                tracer: Tracer | None = None,
                requests: int | None = None) -> dict:
        """Drive the closed loop; latencies and counts.

        Each client stops after ``requests`` requests if that is given,
        else once ``seconds`` have passed.
        """
        from repro.serve import AgentClient, AgentError, RetryPolicy

        results = [{"upload": [], "flat": [], "throttled": 0}
                   for _ in range(SERVE_CLIENTS)]
        deadline = time.perf_counter() + seconds

        def agent(t: int) -> None:
            client = AgentClient(host, port, timeout=60,
                                 policy=RetryPolicy(retries=0))
            out, tenant = results[t], self.tenant(t)
            k = 0
            while (k < requests if requests
                   else time.perf_counter() < deadline):
                k += 1
                op_id = f"{t}:{k}"
                with (tracer.op(op_id) if tracer
                      else contextlib.nullcontext()):
                    self.run.attempt()
                    try:
                        if k % FLAT_EVERY == 0:
                            self._query(client, tenant, out)
                        else:
                            self._upload(client, t, out)
                    except AgentError as exc:
                        out["throttled"] += exc.status == 429
                        self.run.fail(f"{tenant}: {exc}")
                    except (OSError, http.client.HTTPException) as exc:
                        self.run.fail(f"{tenant}: transport {exc}")

        threads = [threading.Thread(target=agent, args=(t,))
                   for t in range(SERVE_CLIENTS)]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - t0
        merged = {
            key: [x for r in results for x in r[key]]
            for key in ("upload", "flat")
        }
        merged["throttled"] = sum(r["throttled"] for r in results)
        merged["wall"] = wall
        return merged

    def _upload(self, client, t: int, out: dict) -> None:
        index = self.next_index[t]
        self.next_index[t] += 1
        body = self.uploads.body(t, index)
        t0 = time.perf_counter()
        result = client.upload(self.tenant(t), body)
        out["upload"].append(time.perf_counter() - t0)
        if result.status != "merged":
            self.run.fail(f"{self.tenant(t)}: upload {result.status}")
        else:
            self.acked[t].append(body)

    def _query(self, client, tenant: str, out: dict) -> None:
        t0 = time.perf_counter()
        status, _, body = client.request("GET", f"/v1/profiles/{tenant}/flat")
        out["flat"].append(time.perf_counter() - t0)
        if status != 200 or b"cumulative" not in body:
            self.run.fail(f"{tenant}: /flat answered {status}")

    # -- the offline check ---------------------------------------------------

    def offline(self, t: int):
        """An in-process ``tree_reduce`` of exactly tenant ``t``'s acks."""
        from repro.fleet import tree_reduce

        folder = self.run.work / "acked" / str(t)
        folder.mkdir(parents=True, exist_ok=True)
        paths = []
        for n, body in enumerate(self.acked[t]):
            paths.append(folder / f"{n:06d}.gmon")
            paths[-1].write_bytes(body)
        return tree_reduce(paths, jobs=1)

    def listing(self, data) -> bytes:
        from repro.pipeline import ProfileSession
        from repro.report import format_flat_profile

        profile = ProfileSession.from_image(str(self.syms)).analyze(data)
        return format_flat_profile(profile).encode()

    # -- the timed run -------------------------------------------------------

    def spawn(self, root: Path) -> tuple[str, int, float]:
        """Start ``repro-serve``; return once ``/healthz`` answers 200."""
        from repro.serve import AgentClient

        announce = root.with_suffix(".addr")
        announce.unlink(missing_ok=True)
        t0 = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", CLI_MODULES["serve"], "--root", str(root),
             "--port", "0", "--image", str(self.syms),
             "--announce", str(announce)],
            env=self.run.env, cwd=self.run.work, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = t0 + 60
        while (time.perf_counter() < deadline
               and self.server.poll() is None):
            if announce.exists():
                host, port = announce.read_text().split()
                if AgentClient(host, int(port), timeout=5).healthy():
                    return host, int(port), time.perf_counter() - t0
            time.sleep(0.002)
        self.stop(kill=True)
        raise RuntimeError("repro-serve did not become healthy")

    def stop(self, kill: bool = False) -> None:
        """End the running server: SIGTERM, or SIGKILL with ``kill``."""
        proc, self.server = self.server, None
        if proc is None:
            return
        if not kill:
            proc.terminate()
            if self.run.reap(proc, timeout=30) is not None:
                return
        proc.kill()
        self.run.reap(proc)

    def timed(self) -> dict:
        self.setup()
        self.server = None
        try:
            return self._timed()
        finally:
            self.stop(kill=True)

    def _timed(self) -> dict:
        from repro.gmon import dumps_gmon
        from repro.serve import AgentClient

        spawns = []
        for k in range(SERVE_SPAWNS):
            self.stop()
            root = self.run.work / f"root{k}"
            (host, port, elapsed), ref = self.run.against_reference(
                lambda: self.spawn(root))
            spawns.append((elapsed, ref))
        # The upload phase runs in windows of equal work with a reference
        # run between them.  Each window's wall time is scaled by the
        # reference around it before the rates are summed, so the windows
        # with a checkpoint in them weigh as much as they take.
        def window():
            return self.clients(host, port, 0, requests=SERVE_WINDOW_REQUESTS)

        warmup = window()
        windows = []
        deadline = time.perf_counter() + self.run.seconds
        while time.perf_counter() < deadline:
            windows.append(self.run.against_reference(window))
        self.stop(kill=True)
        host, port, recovery = self.spawn(root)
        client = AgentClient(host, port, timeout=60)
        for t in range(SERVE_CLIENTS):
            self.run.attempt()
            tenant = self.tenant(t)
            data = self.offline(t)
            if client.merged_sum(tenant) != dumps_gmon(data):
                self.run.fail(f"{tenant}: /sum after restart differs")
                continue
            status, _, flat = client.request(
                "GET", f"/v1/profiles/{tenant}/flat")
            if status != 200 or flat != self.listing(data):
                self.run.fail(f"{tenant}: /flat after restart differs")
        self.stop()
        uploads = [x for res, _ in windows for x in res["upload"]]
        flats = [x for res, _ in windows for x in res["flat"]]
        wall = sum(res["wall"] for res, _ in windows)
        wall_ref = sum(res["wall"] / ref for res, ref in windows)
        metrics = {
            "setup_s": (REFERENCE_S * median([e / r for e, r in spawns]),
                        "s"),
            "ops_per_s": (len(uploads) / (REFERENCE_S * wall_ref), "1/s"),
            "peak_rss_mb": (self.run.peak_rss_kb / 1024, "MiB"),
        }
        detail = {
            "warmup_uploads": len(warmup["upload"]),
            "uploads": len(uploads),
            "flats": len(flats),
            "windows": len(windows),
            "uploads_per_s": len(uploads) / wall,
            "setup_wall_s": median([e for e, _ in spawns]),
            "upload_p50_ms": 1000 * median(uploads),
            "upload_p99_ms": 1000 * percentile(uploads, 0.99),
            "upload_p99_beyond": beyond(uploads, 0.99),
            "flat_p50_ms": 1000 * median(flats),
            "flat_p90_ms": 1000 * percentile(flats, 0.90),
            "flat_p90_beyond": beyond(flats, 0.90),
            "recovery_s": recovery,
            "throttled": warmup["throttled"] + sum(
                res["throttled"] for res, _ in windows),
        }
        return {"metrics": metrics, "detail": detail}

    # -- the traced run ------------------------------------------------------

    def traced(self) -> dict:
        from repro.gmon import dumps_gmon
        from repro.serve import Quarantine, ServeConfig
        from repro.serve.state import TenantStore

        self.setup()
        layers = import_metrics(list(self.clis), self.run.env)
        config = ServeConfig(root=str(self.run.work / "root"), port=0,
                             image=str(self.syms))
        server = ServerThread(config)
        host, port = server.start()
        tracer = Tracer(self.run.work)
        try:
            half = self.run.seconds / 2
            plain = self.clients(host, port, half)
            install(tracer)
            traced = self.clients(host, port, half, tracer)
            server.kill()
            quarantine = Quarantine(config.quarantine_root())
            stores = tracer.timed("serve.recover", lambda: [
                TenantStore.open(self.tenant(t), config, quarantine)
                for t in range(SERVE_CLIENTS)
            ])()
        finally:
            tracer.close()
        replayed = sum(s.since_checkpoint for s in stores)
        for t, store in enumerate(stores):
            self.run.attempt()
            if store.merged() != dumps_gmon(self.offline(t)):
                self.run.fail(f"{self.tenant(t)}: recovered sum differs")
            store.close()
        spans = tracer.collect()
        idx = SpanIndex(spans)
        nops = len(traced["upload"]) + len(traced["flat"])
        layers.update(layer_metrics(idx, nops))
        accepts = idx.calls("serve.accept")
        mean_accept = idx.total("serve.accept") / accepts if accepts else 0.0
        layers.update({
            "serve.accept_s": idx.total("serve.accept") / nops,
            "serve.journal_append_s": idx.total("serve.journal_append") / nops,
            "serve.fold_s": (idx.total("serve.accept")
                             - idx.total("serve.journal_append")) / nops,
            "serve.wait_ms": 1000 * (statistics.fmean(traced["upload"])
                                     - mean_accept),
            "serve.query_analyze_s": idx.total("pipeline.analyze") / nops,
            "serve.query_render_s": idx.total("report.flat") / nops,
            "serve.merged_ratio": (idx.count("serve.accept", "merged")
                                   / accepts if accepts else 0.0),
            "serve.throttled": plain["throttled"] + traced["throttled"],
            "serve.quarantined": idx.count("serve.accept", "quarantined"),
            "serve.recovery_replayed": replayed,
            "trace.overhead_ratio": (median(traced["upload"])
                                     / median(plain["upload"])),
        })
        return {"layers": layers, "spans": spans,
                "detail": {"plain_ops": len(plain["upload"]),
                           "traced_ops": nops}}


WORKLOADS = {
    "vm-journey": VmJourney,
    "big-listing": BigListing,
    "serve-mixed": ServeMixed,
    "pgo": Pgo,
}


# -- where the spans go in ----------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the attribute its caller uses."""
    import repro.cli.gprof_cli as gprof_cli
    import repro.cli.vm_cli as vm_cli
    import repro.fleet.accumulator as accumulator
    import repro.lang.pgo as pgo
    import repro.pipeline as pipeline
    import repro.pipeline.cache as cache
    import repro.pipeline.session as session
    import repro.report as report
    import repro.serve.journal as journal
    import repro.serve.state as state
    from repro.machine.monitor import Monitor

    def nbytes(args, kwargs, result):
        return {"bytes": len(result if isinstance(result, str) else args[0])}

    def stage_counts(args, kwargs, result):
        counters = args[1]
        return {k: counters[k] for k in ("routine_arcs", "cycles",
                                         "cycle_members") if k in counters}

    def cache_counts(args, kwargs, result):
        group = args[1] in GROUP_KINDS
        return {"group": int(group), "hit": int(group and result is not None)}

    def pass_counts(args, kwargs, result):
        return {f"{trace.name}.{k}": v
                for trace in result[1] for k, v in trace.counters.items()}

    def accept_counts(args, kwargs, result):
        return {"merged": int(result.status == "merged"),
                "quarantined": int(result.status == "quarantined")}

    def mcleanup_counts(args, kwargs, result):
        return {"calls": result.total_calls, "samples": result.total_ticks}

    def traced_make_cpu(make_cpu):
        @functools.wraps(make_cpu)
        def wrapper(*args, **kwargs):
            cpu = make_cpu(*args, **kwargs)
            cpu.run = tracer.timed(
                "machine.run", cpu.run,
                lambda a, k, r: {"instructions": cpu.instructions_executed},
            )
            return cpu

        return wrapper

    tracer.wrap(accumulator, "parse_gmon_raw", "gmon.read", nbytes)
    tracer.wrap(state, "parse_gmon_raw", "gmon.read", nbytes)
    tracer.wrap(vm_cli, "write_gmon", "gmon.write")
    tracer.wrap(session, "tree_reduce", "fleet.reduce",
                lambda a, k, r: {"inputs": len(a[0])})
    for stage in pipeline.STAGES:
        tracer.wrap(stage, "run", f"pipeline.{stage.name}", stage_counts)
    tracer.wrap(session.ProfileSession, "analyze", "pipeline.analyze")
    tracer.wrap(cache.AnalysisCache, "get", "pipeline.cache_get", cache_counts)
    for owner in (gprof_cli, report):
        tracer.wrap(owner, "format_graph_profile", "report.graph", nbytes)
        tracer.wrap(owner, "format_flat_profile", "report.flat", nbytes)
    tracer.wrap(gprof_cli, "static_call_graph", "machine.crawl")
    for owner in (vm_cli, pgo):
        tracer.wrap(owner, "assemble", "machine.assemble")
        tracer.replace(owner, "make_cpu", traced_make_cpu(owner.make_cpu))
    tracer.wrap(Monitor, "mcleanup", "machine.mcleanup", mcleanup_counts)
    tracer.wrap(pgo, "parse", "lang.parse")
    tracer.wrap(pgo, "run_passes", "lang.passes", pass_counts)
    tracer.wrap(pgo, "generate", "lang.codegen")
    tracer.wrap(pgo, "generate_mapped", "lang.codegen")
    tracer.wrap(pgo.ProfileFeedback, "from_measurement", "lang.feedback")
    tracer.wrap(state.TenantStore, "accept", "serve.accept", accept_counts)
    tracer.wrap(journal.JournalWriter, "append", "serve.journal_append")


def layer_metrics(idx: SpanIndex, nops: int) -> dict:
    """Every per-layer metric the spans give, per traced op."""

    def per_op(value: float) -> float:
        return value / nops if nops else 0.0

    def per_call(name: str, key: str) -> float:
        calls = idx.calls(name)
        return idx.count(name, key) / calls if calls else 0.0

    worker_pids = idx.pids("gmon.read") - {os.getpid()}
    reduces = idx.calls("fleet.reduce")
    run_s = idx.total("machine.run")
    group_gets = idx.count("pipeline.cache_get", "group")
    analyzed = (idx.total("pipeline.analyze") + idx.total("report.graph")
                + idx.total("report.flat"))
    out = {
        "gmon.read_s": per_op(idx.self_total("gmon.read")),
        "gmon.read_calls": per_op(idx.calls("gmon.read")),
        "gmon.mb": per_op(idx.count("gmon.read", "bytes") / 1e6),
        "gmon.write_s": per_op(idx.self_total("gmon.write")),
        "fleet.reduce_s": per_op(idx.self_total("fleet.reduce")),
        "fleet.inputs": per_op(idx.count("fleet.reduce", "inputs")),
        "fleet.workers": (len(worker_pids) / reduces if worker_pids
                          else float(reduces > 0)),
        "pipeline.analyze_s": per_op(idx.self_total("pipeline.analyze")),
        "pipeline.routine_arcs": per_call("pipeline.symbolize",
                                          "routine_arcs"),
        "pipeline.cycles": per_call("pipeline.number", "cycles"),
        "pipeline.cycle_members": per_call("pipeline.number",
                                           "cycle_members"),
        "pipeline.cache_hit_ratio": (
            idx.count("pipeline.cache_get", "hit") / group_gets
            if group_gets else 0.0),
        "report.graph_s": per_op(idx.self_total("report.graph")),
        "report.flat_s": per_op(idx.self_total("report.flat")),
        "report.mb": per_op((idx.count("report.graph", "bytes")
                             + idx.count("report.flat", "bytes")) / 1e6),
        "machine.assemble_s": per_op(idx.self_total("machine.assemble")),
        "machine.run_s": per_op(run_s),
        "machine.instructions": per_op(idx.count("machine.run",
                                                 "instructions")),
        "machine.mips": (idx.count("machine.run", "instructions") / run_s
                         / 1e6 if run_s else 0.0),
        "machine.mcount_calls": per_op(idx.count("machine.mcleanup",
                                                 "calls")),
        "machine.samples": per_op(idx.count("machine.mcleanup", "samples")),
        "machine.crawl_s": per_op(idx.self_total("machine.crawl")),
        "lang.parse_s": per_op(idx.self_total("lang.parse")),
        "lang.passes_s": per_op(idx.self_total("lang.passes")),
        "lang.codegen_s": per_op(idx.self_total("lang.codegen")),
        "lang.feedback_s": per_op(idx.self_total("lang.feedback")),
        "trace.unaccounted_ratio": (
            idx.self_total("pipeline.analyze") / analyzed if analyzed
            else 0.0),
    }
    for stage in STAGE_NAMES:
        out[f"pipeline.{stage}_s"] = per_op(
            idx.self_total(f"pipeline.{stage}"))
    for counter in LANG_COUNTERS:
        out[f"lang.{counter}"] = per_op(idx.count("lang.passes", counter))
    return out
