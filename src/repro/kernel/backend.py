"""Kernel backend registry: numpy detection, selection, and accounting.

The vectorised kernel tier (:mod:`repro.kernel`) is strictly optional:
numpy is probed exactly once, never imported at package import time by
anything outside this subpackage, and every consumer keeps its
pure-Python implementation as the differential-testing oracle.  This
module is the single place that decides, per execution, which tier runs:

* :func:`numpy_or_none` — the cached probe.  ``REPRO_KERNEL=python``
  disables the numpy tier process-wide (useful for A/B timing and for
  exercising the oracle path with numpy installed);
  ``REPRO_KERNEL=numpy`` forces it wherever it is applicable, ignoring
  the size thresholds.
* :func:`select` — the per-call cost model.  Vectorisation pays a fixed
  per-ndarray-op overhead, so tiny inputs stay on the pure path; each
  layer (``dp``, ``wl``, ``bitset``, ``matrix``) has its own crossover
  size.  Every decision increments
  ``repro_backend_selected_total{layer=...,backend=...}`` so the obs
  layer shows which tier served each task.
* :func:`note_fallback` — exact big-int safety.  The numpy tiers run in
  int64 with a-priori overflow detection; when a step *could* overflow
  they raise :class:`KernelUnsupported` and the caller re-runs the
  pure-Python path (counted under
  ``repro_kernel_fallback_total{layer=...,reason=...}``).  Results are
  exact either way.
* :func:`force_backend` — a context manager pinning the decision, used
  by the differential tests and the kernel benchmark.

:func:`kernel_report` summarises availability, thresholds, selection
counts, and fallback counts for ``repro engine-stats --backends``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from repro.obs import registry

# Per-layer crossover sizes (input "size" is layer-specific: target
# vertex count for dp/bitset, n + m for wl, matrix order for matrix).
# Below these, per-op ndarray overhead beats the vectorisation win.
DP_MIN_TARGET = 32
WL_MIN_SIZE = 256
BITSET_MIN_TARGET = 96
MATRIX_MIN_ORDER = 1

_THRESHOLDS = {
    "dp": DP_MIN_TARGET,
    "wl": WL_MIN_SIZE,
    "bitset": BITSET_MIN_TARGET,
    "matrix": MATRIX_MIN_ORDER,
}

LAYERS = tuple(sorted(_THRESHOLDS))

_lock = threading.Lock()
_probed = False
_numpy = None
_forced: str | None = None  # None | "python" | "numpy"


class KernelUnsupported(Exception):
    """A numpy tier cannot run this input exactly (int64/packing bounds).

    Raised *before* any wraparound can happen; the caller falls back to
    the pure-Python oracle path, so results are always exact.  A tier
    that got partway (e.g. WL rounds before the round budget ran out)
    may attach its intermediate state as ``partial`` so the fallback can
    resume instead of restarting.
    """

    partial = None

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


def _env_force() -> str | None:
    value = os.environ.get("REPRO_KERNEL")
    return value if value in ("python", "numpy") else None


def _effective_force() -> str | None:
    return _forced if _forced is not None else _env_force()


def numpy_or_none():
    """The numpy module, or ``None`` — probed once, never raises.

    ``REPRO_KERNEL=python`` makes this return ``None`` even when numpy
    is importable, turning every auto selection into the pure path.
    """
    global _probed, _numpy
    if _effective_force() == "python":
        return None
    if not _probed:
        with _lock:
            if not _probed:
                try:
                    import numpy  # noqa: F401 - probe only

                    _numpy = numpy
                except Exception:  # ImportError, broken installs
                    _numpy = None
                _probed = True
    return _numpy


def numpy_available() -> bool:
    return numpy_or_none() is not None


def _reset_probe_for_tests() -> None:
    """Drop the cached probe so a ``sys.modules`` import block takes
    effect (tests only)."""
    global _probed, _numpy
    with _lock:
        _probed = False
        _numpy = None


@contextmanager
def force_backend(backend: str | None):
    """Pin selection to ``"python"`` or ``"numpy"`` within the block.

    ``"numpy"`` ignores the size thresholds (numpy must be importable);
    ``"python"`` never selects the vectorised tier.  ``None`` restores
    the cost model.  Not safe to nest concurrently across threads with
    different values — benchmark/test affordance, not an API.
    """
    global _forced
    if backend not in (None, "python", "numpy"):
        raise ValueError(f"unknown kernel backend {backend!r}")
    previous = _forced
    _forced = backend
    try:
        yield
    finally:
        _forced = previous


# ----------------------------------------------------------------------
# selection + accounting
# ----------------------------------------------------------------------
def _selected_family():
    return registry().counter(
        "repro_backend_selected_total",
        help="Kernel tier chosen per execution, by layer.",
        labelnames=("layer", "backend"),
    )


def _fallback_family():
    return registry().counter(
        "repro_kernel_fallback_total",
        help="Numpy-tier executions rerouted to the pure-Python oracle.",
        labelnames=("layer", "reason"),
    )


def note_selected(layer: str, backend: str) -> None:
    _selected_family().labels(layer=layer, backend=backend).inc()


def note_fallback(layer: str, reason: str) -> None:
    _fallback_family().labels(layer=layer, reason=reason).inc()


def select(layer: str, size: int) -> str:
    """``"numpy"`` or ``"python"`` for one execution of ``layer``.

    ``size`` is the layer's crossover measure.  The decision is recorded
    in ``repro_backend_selected_total``.
    """
    forced = _effective_force()
    if forced is not None:
        backend = forced
        if backend == "numpy" and numpy_or_none() is None:
            raise RuntimeError("REPRO_KERNEL/force_backend: numpy unavailable")
    elif numpy_or_none() is None or size < _THRESHOLDS[layer]:
        backend = "python"
    else:
        backend = "numpy"
    note_selected(layer, backend)
    return backend


def would_select(layer: str, size: int) -> str:
    """:func:`select` without recording — for display (``.explain()``)."""
    forced = _effective_force()
    if forced is not None:
        return forced
    if numpy_or_none() is None or size < _THRESHOLDS[layer]:
        return "python"
    return "numpy"


def resolve(layer: str, size: int, backend: str = "auto") -> str:
    """Resolve an explicit ``backend=`` argument (``auto`` applies the
    cost model; ``python``/``numpy`` are honoured and recorded)."""
    if backend == "auto":
        return select(layer, size)
    if backend not in ("python", "numpy"):
        raise ValueError(f"unknown kernel backend {backend!r}")
    if backend == "numpy" and numpy_or_none() is None:
        raise RuntimeError("backend='numpy' requested but numpy is unavailable")
    note_selected(layer, backend)
    return backend


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _family_counts(name: str, key_labels: tuple[str, str]) -> dict[str, int]:
    snapshot = registry().snapshot().get(name)
    counts: dict[str, int] = {}
    if not snapshot:
        return counts
    for sample in snapshot["samples"]:
        labels = sample["labels"]
        key = f"{labels[key_labels[0]]}/{labels[key_labels[1]]}"
        counts[key] = counts.get(key, 0) + int(sample["value"])
    return counts


def kernel_report() -> dict:
    """Availability, thresholds, and selection/fallback counts —
    the payload behind ``repro engine-stats --backends``."""
    module = numpy_or_none()
    return {
        "numpy_available": module is not None,
        "numpy_version": getattr(module, "__version__", None),
        "forced": _effective_force(),
        "layers": list(LAYERS),
        "thresholds": dict(_THRESHOLDS),
        "selected": _family_counts(
            "repro_backend_selected_total", ("layer", "backend"),
        ),
        "fallbacks": _family_counts(
            "repro_kernel_fallback_total", ("layer", "reason"),
        ),
    }
