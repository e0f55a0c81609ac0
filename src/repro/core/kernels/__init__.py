"""repro.core.kernels: backend-selectable bulk kernels for the data plane.

The paper's data plane is three kinds of arithmetic repeated at fleet
scale: summing histogram buckets, condensing ``(from_pc, self_pc)``
arc records, apportioning bucket ticks to routines (§3.2), and pushing
time up the topological order (§4).  Each of those hot paths is served
by a *kernel* with three interchangeable backends:

``python``
    The readable reference: scalar loops that transcribe the paper's
    arithmetic one bucket / one record / one arc at a time.  Every
    fast backend is defined as "produces exactly what this produces".
``array``
    Stdlib-only vectorization: ``struct`` bulk unpacks, ``array``
    column stores, ``itertools.accumulate`` prefix sums, and a
    big-integer lane trick that adds thousands of u32 buckets in one
    C-level integer addition.
``numpy``
    Optional; used only when numpy is importable.  Column arithmetic
    over ``frombuffer`` views of the wire blobs.

Backends are *bit-compatible by construction*: integer kernels are
exact, and the float kernels (apportion, propagate) are arranged so
every rounding step happens on the same values in the same order as
the reference (see :mod:`repro.core.kernels.spans` and
:mod:`repro.core.kernels.prop` for the argument).  The equivalence is
gated twice — a hypothesis suite (``tests/test_kernels_equivalence``)
and the T-KERN byte-identity benchmark (exit 2 on divergence).

Selection: ``REPRO_KERNELS`` environment variable (``auto`` /
``python`` / ``array`` / ``numpy``), overridden per-process by
:func:`set_default_backend` (the CLIs' ``--kernels`` flag).  An
explicit name selects that backend for every kernel call.  ``auto``
chooses per call, from the vector length the caller already holds: the
bucket count for a fold, ``len(counts)`` for apportionment, the plan's
arc count for propagation.  At or above the kernel's measured
:data:`CROSSOVERS` length it uses numpy; below it, and whenever numpy
is missing or fails to import, it uses ``array``.  numpy is imported
on the first call that resolves to it, so a small profile never pays
for the import.  The ``python`` backend is never auto-selected — it is
the spec, not the fast path.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Callable

from repro.errors import KernelBackendError

from repro.core.kernels import arcs as _arcs
from repro.core.kernels import buckets as _buckets
from repro.core.kernels import spans as _spans

from repro.core.kernels.arcs import ArcTable
from repro.core.kernels.buckets import BucketAccumulator
from repro.core.kernels.spans import SymbolSpans, build_spans, spans_for

ENV_VAR = "REPRO_KERNELS"

#: Whether numpy is installed.  It is imported only when a kernel call
#: first resolves to it (see :func:`get_backend`).
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


@dataclass(frozen=True)
class Backend:
    """One kernel implementation family, selected as a unit.

    Attributes:
        name: registry name (``python`` / ``array`` / ``numpy``).
        bucket_acc: factory for a histogram-bucket accumulator.
        arc_table: factory for an arc-condensing table.
        apportion: span evaluator for bucket→routine apportionment.
        vector_propagate: whether §4 propagation uses the batched
            column solver (numpy only; the stdlib backends share the
            scalar plan walk).
    """

    name: str
    bucket_acc: Callable[[], BucketAccumulator]
    arc_table: Callable[[], ArcTable]
    apportion: Callable[[SymbolSpans, list, float], dict]
    vector_propagate: bool = False


_REGISTRY: dict[str, Backend] = {
    "python": Backend(
        "python",
        _buckets.BucketAccumulator,
        _arcs.ArcTable,
        _spans.apportion_python,
    ),
    "array": Backend(
        "array",
        _buckets.ArrayBucketAccumulator,
        _arcs.ArrayArcTable,
        _spans.apportion_array,
    ),
}
if HAVE_NUMPY:  # registered now, imported on first use
    _REGISTRY["numpy"] = Backend(
        "numpy",
        _buckets.NumpyBucketAccumulator,
        _arcs.NumpyArcTable,
        _spans.apportion_array,
        vector_propagate=True,
    )

#: ``auto``'s per-kernel crossovers: the vector length from which one
#: numpy call is at least as fast as one ``array`` call, warm, in every
#: run of ``python -m benchmarks.kernel_crossover``.  Propagation sits
#: within 5% of parity from 512 to 2048 arcs, so its crossover is the
#: first length where numpy led in every run.  None means numpy never
#: wins: a numpy apportion ran at about 0.8x ``array`` at every length,
#: so the numpy backend now apportions with ``array``'s evaluator.
CROSSOVERS: dict[str, int | None] = {
    "fold": 512,
    "apportion": None,
    "propagate": 4096,
}

#: Process-wide override installed by ``--kernels`` (None = follow env).
_forced: str | None = None


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this interpreter, reference first."""
    return tuple(_REGISTRY)


def _numpy_ready() -> bool:
    """Import numpy on first use; a broken install drops the backend."""
    if "numpy" in _REGISTRY and sys.modules.get("numpy") is None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            _REGISTRY.pop("numpy", None)
    return "numpy" in _REGISTRY


def _resolve(name: str, kernel: str | None, size: int) -> Backend:
    if name in ("", "auto"):
        crossover = CROSSOVERS.get(kernel)
        if crossover is not None and size >= crossover and _numpy_ready():
            return _REGISTRY["numpy"]
        return _REGISTRY["array"]
    if name == "numpy":
        _numpy_ready()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KernelBackendError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())} (or 'auto')"
        ) from None


def get_backend(
    name: str | None = None, kernel: str | None = None, size: int = 0
) -> Backend:
    """The kernel backend to serve one call.

    Explicit ``name`` wins; then the :func:`set_default_backend`
    override; then the ``REPRO_KERNELS`` environment variable; then
    ``auto``, which picks numpy when ``size`` (the call's vector
    length) reaches the crossover of ``kernel`` (a :data:`CROSSOVERS`
    key) and ``array`` otherwise.
    """
    if name is None:
        name = default_backend_name()
    return _resolve(name.strip().lower(), kernel, size)


def default_backend_name() -> str:
    """The configured selection: ``auto`` or one backend's name.

    Under ``auto`` the backend is chosen per call; the one that served
    a call is the ``name`` of the :class:`Backend` that call got.
    """
    if _forced is not None:
        return _forced
    return os.environ.get(ENV_VAR, "auto").strip().lower() or "auto"


def set_default_backend(name: str | None) -> None:
    """Install (or with None, clear) a process-wide backend override.

    The CLIs' ``--kernels`` flag lands here; it outranks the
    environment variable.  Raises :class:`KernelBackendError` immediately for
    an unknown or unavailable name.
    """
    global _forced
    if name is not None:
        name = name.strip().lower()
        _resolve(name, None, 0)  # validate eagerly
    _forced = name


__all__ = [
    "CROSSOVERS",
    "ENV_VAR",
    "HAVE_NUMPY",
    "ArcTable",
    "Backend",
    "BucketAccumulator",
    "KernelBackendError",
    "SymbolSpans",
    "available_backends",
    "build_spans",
    "default_backend_name",
    "get_backend",
    "set_default_backend",
    "spans_for",
]
