"""The pruned free-space hop: ``pad -> FFT -> H -> IFFT -> crop`` in one place.

Every propagation in the package's fast paths — each hop of the
:class:`~repro.runtime.InferenceEngine` stack, the fused training op's
forward and its ``conj(H)`` adjoint, and the bare
:class:`~repro.optics.Propagator` — runs through :func:`hop`.

The pass works on a padded ``(batch, side, side)`` plane whose nonzero
entries lie in the ``n`` interior rows ``pad:pad + n`` (the pad border is
zero).  Each 2-D transform is split into per-axis passes, so the row-axis
FFT only visits the interior rows (the zero border rows transform to zero
for free) and the inverse side produces only the interior rows, which is
all a crop or the next modulation keeps: at ``pad_factor=2`` that skips a
quarter of all FFT work with results identical to the full 2-D pass.
Transforms run unscaled; the ortho normalization is folded into the
prescaled transfer function (``PropagationKernel.prescaled``).

Every pass runs in place on the caller's plane (``overwrite_x``, which
scipy's pocketfft honours), so a hop allocates no plane-sized
temporaries; it returns a view of the plane's interior rows and leaves
the border rows zero again, which is all the next fill relies on.
numpy's FFTs ignore ``overwrite_x`` and return fresh arrays; the hop
uses whatever each pass returns, with the same bits.

:func:`hop_batch` is the fused training op's entry point: it splits a
batch into contiguous row slices and runs them on a process-wide thread
pool, with an optional elementwise multiply on the way in and out (the
layer modulation).  Every 1-D transform and every multiply acts on one
row at a time, so the sliced result equals the serial one bit for bit;
pocketfft and numpy release the GIL, so the slices really run in
parallel.

This module depends only on numpy and :mod:`repro.backend.dispatch`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from ..backend import dispatch as _fft

__all__ = ["hop", "hop_batch", "thread_budget", "usable_cores",
           "MIN_SLICE_ROWS"]

#: Fewest batch rows a slice gets; smaller batches run serially.  Waking
#: a pool thread costs up to a millisecond on a virtualized core, so a
#: slice must carry enough work to pay for it.  Measured at n=40,
#: pad_factor=2 on 2 cores (docs/performance.md, "Thread budget"): two
#: slices of 16 rows gain 5 % (double) to 1.9x (single) over one 32-row
#: pass, while slices of 4 to 8 rows lose 5-20 %.
MIN_SLICE_ROWS = 16

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_THREADS = 0
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """A forked child inherits the pool object but none of its threads;
    drop it so the child builds its own on first use."""
    global _POOL, _POOL_THREADS, _POOL_LOCK
    _POOL, _POOL_THREADS = None, 0
    _POOL_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity, where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def thread_budget() -> int:
    """Threads :func:`hop_batch` may use: the ``set_workers`` /
    ``REPRO_FFT_WORKERS`` value, or every usable core when it is unset
    (negative values count back from the cores, scipy-style)."""
    workers = _fft.get_workers()
    if workers is None:
        return usable_cores()
    if workers < 0:
        return max(1, usable_cores() + 1 + workers)
    return workers


def hop(work: np.ndarray, h: np.ndarray, pad: int, n: int,
        workers: Optional[int] = None) -> np.ndarray:
    """One pruned hop over the padded plane ``work`` through ``h``.

    ``h`` is a prescaled transfer function (its conjugate gives the
    adjoint hop).  ``work``'s border rows (outside ``pad:pad + n``) must
    be zero.  Every pass asks for ``overwrite_x``: scipy honours it and
    runs all four transforms and the ``h`` multiply in place on ``work``;
    numpy ignores it and returns fresh arrays.  Either way the hop uses
    the array each pass returns, so the bits are the same.  Returns the
    propagated interior rows ``(batch, n, side)`` -- a view of ``work``
    under scipy -- whose ``[..., pad:pad + n]`` is the cropped field.
    The interior rows of ``work`` are left overwritten; its border rows
    are zero again on return, also when a pass raises.
    """
    rows = slice(pad, pad + n)
    try:
        interior = work[:, rows, :]
        spectrum = _fft.fft(interior, axis=-1, overwrite_x=True,
                            workers=workers)
        if not np.may_share_memory(spectrum, work):
            interior[...] = spectrum  # the column pass reads the plane
        plane = _fft.fft(work, axis=-2, overwrite_x=True, workers=workers)
        np.multiply(plane, h, out=plane)
        plane = _fft.ifft(plane, axis=-2, norm="forward", overwrite_x=True,
                          workers=workers)
        return _fft.ifft(plane[:, rows, :], axis=-1, norm="forward",
                         overwrite_x=True, workers=workers)
    finally:
        work[:, :pad] = 0
        work[:, pad + n:] = 0


def _hop_slice(fields: np.ndarray, h: np.ndarray, pad: int, n: int,
               work: np.ndarray, out: np.ndarray, lo: int, hi: int,
               workers: Optional[int], pre: Optional[np.ndarray],
               post: Optional[np.ndarray]) -> None:
    """Rows ``lo:hi``: fill their planes, hop, crop into ``out``.

    The planes' border rows are zero (:func:`hop` restores them), so
    only the interior rows' pad columns need clearing.  ``pre`` and
    ``post`` multiply the fields on the way in and the cropped result
    on the way out, row by row like every other pass.
    """
    plane = work[lo:hi]
    inner = plane[:, pad:pad + n]
    inner[:, :, :pad] = 0
    inner[:, :, pad + n:] = 0
    interior = inner[:, :, pad:pad + n]
    if pre is None:
        interior[...] = fields[lo:hi]
    else:
        np.multiply(fields[lo:hi], pre, out=interior)
    crop = hop(plane, h, pad, n, workers)[:, :, pad:pad + n]
    if post is None:
        out[lo:hi] = crop
    else:
        np.multiply(crop, post, out=out[lo:hi])


def _submit(slices: List[tuple]) -> list:
    """Queue the slices on the shared pool, growing it when needed."""
    global _POOL, _POOL_THREADS
    with _POOL_LOCK:
        if _POOL_THREADS < len(slices):
            if _POOL is not None:
                _POOL.shutdown(wait=False)  # queued slices still run
            _POOL = ThreadPoolExecutor(max_workers=len(slices),
                                       thread_name_prefix="repro-hop")
            _POOL_THREADS = len(slices)
        return [_POOL.submit(_hop_slice, *args) for args in slices]


def hop_batch(fields: np.ndarray, h: np.ndarray, pad: int, n: int,
              work: np.ndarray, out: np.ndarray,
              pre: Optional[np.ndarray] = None,
              post: Optional[np.ndarray] = None) -> np.ndarray:
    """Propagate ``(batch, n, n)`` fields through ``h`` into ``out``.

    ``work`` is a ``(batch, side, side)`` scratch plane of ``h.dtype``
    whose border rows (outside ``pad:pad + n``) are zero -- they are
    zero again on return -- and ``out`` the caller's ``(batch, n, n)``
    result; both are only written row-slice by row-slice.  ``out`` holds
    ``hop(fields * pre) * post`` (see :func:`_hop_slice`).  With a
    :func:`thread_budget` of ``k > 1`` the batch splits into up to ``k``
    contiguous slices of at least :data:`MIN_SLICE_ROWS` rows; the
    calling thread runs the first and pool threads the rest, each with
    single-threaded transforms.  Otherwise one serial pass runs with the
    backend's default ``workers``.  Returns ``out``.
    """
    batch = fields.shape[0]
    count = min(thread_budget(), batch // MIN_SLICE_ROWS)
    if count <= 1:
        _hop_slice(fields, h, pad, n, work, out, 0, batch, None, pre, post)
        return out
    cuts = [batch * index // count for index in range(count + 1)]
    futures = _submit([(fields, h, pad, n, work, out, lo, hi, 1, pre, post)
                       for lo, hi in zip(cuts[1:-1], cuts[2:])])
    try:
        _hop_slice(fields, h, pad, n, work, out, 0, cuts[1], 1, pre, post)
    finally:
        # Every slice writes into work/out: wait for all of them before
        # the caller may reuse either, then surface the first error.
        errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error
    return out
