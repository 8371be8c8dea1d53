"""Optional compiled (numba) kernel tier for the weighted SSSP engine.

The delta-stepping kernel in :mod:`repro.graphs.delta_stepping` spends its
residual time in three scalar loops: the sequential bucket-relaxation inner
loop (thin frontiers), the sigma accumulation over the settle order, and
the weighted Brandes backward pass.  When `numba <https://numba.pydata.org>`_
is importable those loops can run as jitted machine code; when it is not —
numba is an *optional* dependency, never required — the pure-Python loops
run instead, exactly like the no-numpy degradation of the CSR backend.

Determinism: the jitted loops are structurally identical to their Python
sources (same comparisons, same float64 additions in the same order) and
are compiled with ``fastmath`` **disabled**, so no float re-association can
occur — results are bit-identical whether or not numba is present.  In
particular the Brandes backward accumulation
(``delta[u] += sigma[u] / sigma[v] * coefficient``) executes the exact
scalar sequence of the dict reference inside compiled code; the backend
equivalence suite gates this contract.

The tier is controlled by the ``compiled`` row of :mod:`repro.knobs`
(``"auto"``/``"on"``/``"off"``; ``REPRO_COMPILED``,
:func:`set_default_compiled`, ``--compiled``).  ``"auto"`` uses numba iff
it is importable; ``"on"`` raises a clear error when numba is missing (so
a forced configuration never silently degrades); ``"off"`` pins the
pure-Python loops even when numba is installed.
"""

from __future__ import annotations

import importlib.util
from typing import Callable, Dict, Optional

from repro import knobs

COMPILED_AUTO = "auto"
COMPILED_ON = "on"
COMPILED_OFF = "off"

COMPILED_ENV_VAR = knobs.COMPILED.env
default_compiled = knobs.COMPILED.resolve
set_default_compiled = knobs.COMPILED.override
resolve_compiled = knobs.COMPILED.resolve

#: Whether numba is importable (checked without importing it — the import
#: itself is deferred until a kernel is actually requested).
HAS_NUMBA = importlib.util.find_spec("numba") is not None

#: Lazily-jitted kernels by name; ``None`` until the first request.
_kernels: Optional[Dict[str, Callable]] = None
#: Set when jitting failed — the tier then stays pure-Python for the process.
_compile_failed = False


def compiled_enabled(compiled: Optional[str] = None) -> bool:
    """Whether the compiled tier should be used for this process.

    ``"on"`` without numba raises: a forced configuration must not silently
    fall back (the ``"auto"`` default degrades gracefully instead).
    """
    mode = resolve_compiled(compiled)
    if mode == COMPILED_OFF:
        return False
    if mode == COMPILED_ON:
        if not HAS_NUMBA:
            raise ValueError(
                "compiled='on' requires numba, which is not installed; "
                "install numba or use compiled='auto' (the default) to run "
                f"the pure-Python loops (see {COMPILED_ENV_VAR})"
            )
        return not _compile_failed
    return HAS_NUMBA and not _compile_failed


# ---------------------------------------------------------------------------
# Kernel sources.  Plain Python functions — jitted on first use, and kept
# structurally identical to the fallback loops in delta_stepping.py / csr.py
# so the tier can never change results, only speed.
# ---------------------------------------------------------------------------

def _relax_edges_source(indptr, indices, weights, frontier, n, dist, out):
    """Relax every out-edge of ``frontier`` (flat ids) against ``dist``.

    Writes each improved flat target id to ``out`` (duplicates allowed —
    the caller deduplicates) and returns the count.  ``dist`` uses
    ``inf`` = unreachable; the candidate ``dist[u] + w`` is one float64
    addition, the same operation every other kernel performs, so the final
    distance fixpoint is bit-identical regardless of relaxation order.
    """
    count = 0
    for i in range(frontier.shape[0]):
        flat = frontier[i]
        node = flat % n
        base = flat - node
        d = dist[flat]
        for position in range(indptr[node], indptr[node + 1]):
            target = base + indices[position]
            candidate = d + weights[position]
            if candidate < dist[target]:
                dist[target] = candidate
                out[count] = target
                count += 1
    return count


def _sigma_float_source(order, pred_indptr, pred_indices, sigma):
    """Accumulate float sigma over the settle order (source is ``order[0]``).

    Per node the additions run over the predecessor list in append order —
    the dict reference's exact float addition sequence.
    """
    for i in range(1, order.shape[0]):
        node = order[i]
        total = 0.0
        for position in range(pred_indptr[node], pred_indptr[node + 1]):
            total += sigma[pred_indices[position]]
        sigma[node] = total


def _brandes_backward_source(order, pred_indptr, pred_indices, sigma, delta):
    """Weighted Brandes backward pass over the settle order, in place.

    The accumulation ``delta[u] += sigma[u] / sigma[v] * coefficient`` is
    the exact scalar sequence of ``csr_dijkstra_brandes`` — compiled with
    fastmath disabled there is no re-association, so the float results are
    bit-identical to the pure-Python pass.
    """
    for i in range(order.shape[0] - 1, -1, -1):
        node = order[i]
        coefficient = 1.0 + delta[node]
        sigma_node = sigma[node]
        for position in range(pred_indptr[node], pred_indptr[node + 1]):
            predecessor = pred_indices[position]
            delta[predecessor] += sigma[predecessor] / sigma_node * coefficient


_KERNEL_SOURCES = {
    "relax_edges": _relax_edges_source,
    "sigma_float": _sigma_float_source,
    "brandes_backward": _brandes_backward_source,
}


def _compile_kernels() -> Optional[Dict[str, Callable]]:
    """Jit every kernel source once; on any failure disable the tier."""
    global _kernels, _compile_failed
    if _kernels is not None:
        return _kernels
    if _compile_failed:
        return None
    try:
        import numba

        jit = numba.njit(cache=False, fastmath=False)
        _kernels = {name: jit(source) for name, source in _KERNEL_SOURCES.items()}
    except Exception:
        # Any numba breakage (version skew, unsupported platform) downgrades
        # to the pure-Python loops — same results, interpreter speed.
        _compile_failed = True
        _kernels = None
        return None
    return _kernels


def get_kernel(name: str, compiled: Optional[str] = None) -> Optional[Callable]:
    """Return the jitted kernel ``name``, or ``None`` to use the Python loop.

    Resolution is per call so tests can flip the knob; compilation happens
    once per process.  Unknown names raise (a typo would otherwise silently
    disable the tier).
    """
    if name not in _KERNEL_SOURCES:
        raise ValueError(
            f"unknown compiled kernel {name!r}; choose one of "
            f"{tuple(_KERNEL_SOURCES)}"
        )
    if not compiled_enabled(compiled):
        return None
    kernels = _compile_kernels()
    if kernels is None:
        return None
    return kernels[name]
