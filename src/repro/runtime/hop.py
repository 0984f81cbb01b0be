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

This module depends only on numpy and :mod:`repro.backend.dispatch`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend import dispatch as _fft

__all__ = ["hop"]


def hop(work: np.ndarray, h: np.ndarray, pad: int, n: int,
        workers: Optional[int] = None) -> np.ndarray:
    """One pruned hop over the padded plane ``work`` through ``h``.

    ``h`` is a prescaled transfer function (its conjugate gives the
    adjoint hop).  The interior rows of ``work`` are overwritten with
    their row-axis spectrum; the border rows are only read, so they stay
    zero.  Returns the propagated interior rows ``(batch, n, side)`` as a
    fresh array; ``[..., pad:pad + n]`` of it is the cropped field.
    """
    rows = slice(pad, pad + n)
    work[:, rows, :] = _fft.fft(work[:, rows, :], axis=-1, workers=workers)
    spectrum = _fft.fft(work, axis=-2, workers=workers)
    np.multiply(spectrum, h, out=spectrum)
    tall = _fft.ifft(spectrum, axis=-2, norm="forward", overwrite_x=True,
                     workers=workers)
    return _fft.ifft(tall[:, rows, :], axis=-1, norm="forward",
                     overwrite_x=True, workers=workers)
