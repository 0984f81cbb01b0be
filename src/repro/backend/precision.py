"""Process-wide numerical precision policy.

A :class:`Precision` bundles the complex/real dtype pair a computation
should run in with the tolerances that dtype can honestly promise:

* ``"double"`` — complex128/float64, the bit-exact reference mode every
  equivalence test is written against;
* ``"single"`` — complex64/float32, the fast mode: FFT memory traffic
  halves and pocketfft's single-precision kernels run ~2-3x faster.
  DONN training is noise-tolerant far beyond float32 rounding (the
  roughness-aware objective trains under explicit weight perturbation),
  so the relaxed tolerances below are all the mode costs.

The active policy is process-wide state: resolved from
``REPRO_PRECISION`` at import, switchable with
:func:`set_precision`, and scoped with :class:`precision_scope` (what
``Trainer.fit(precision=...)`` uses).  Consumers — the fused training
op, input encoding, the per-precision kernel cache — ask
:func:`get_precision` at call time, so one scope switches the whole
training stack.

Tolerance table
---------------
``forward_atol``   max |logit deviation| vs the complex128 reference
                   (test-enforced by the engine equivalence suite);
``grad_rtol``      fused-vs-composed gradient bound, relative to the
                   largest reference gradient entry;
``gradcheck_eps``  finite-difference step for :func:`repro.autodiff.gradcheck`
                   (float32 losses need a coarser probe: a 1e-6 step
                   drowns in ~6e-8 relative rounding noise);
``gradcheck_rtol`` / ``gradcheck_atol``  the matching gradcheck bounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

__all__ = [
    "Precision",
    "PRECISIONS",
    "resolve_precision",
    "get_precision",
    "set_precision",
    "precision_scope",
]

_PRECISION_ENV = "REPRO_PRECISION"


@dataclass(frozen=True)
class Precision:
    """One dtype policy plus the tolerances it can promise."""

    name: str
    complex_dtype: np.dtype
    real_dtype: np.dtype
    forward_atol: float
    grad_rtol: float
    gradcheck_eps: float
    gradcheck_rtol: float
    gradcheck_atol: float

    @property
    def is_single(self) -> bool:
        return self.complex_dtype == np.dtype(np.complex64)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: The two supported policies (the engine's historical modes, now shared
#: by the whole stack).
PRECISIONS: Dict[str, Precision] = {
    "double": Precision(
        name="double",
        complex_dtype=np.dtype(np.complex128),
        real_dtype=np.dtype(np.float64),
        forward_atol=1e-10,
        grad_rtol=1e-8,
        gradcheck_eps=1e-6,
        gradcheck_rtol=1e-3,
        gradcheck_atol=1e-6,
    ),
    "single": Precision(
        name="single",
        complex_dtype=np.dtype(np.complex64),
        real_dtype=np.dtype(np.float32),
        forward_atol=1e-4,
        grad_rtol=2e-3,
        gradcheck_eps=1e-3,
        gradcheck_rtol=2e-2,
        # The absolute floor covers central-difference noise on a
        # float32-rounded loss: ~eps_f32 * |L| / (2 * gradcheck_eps).
        gradcheck_atol=2e-2,
    ),
}


def resolve_precision(
    precision: Union[str, Precision, None],
) -> Precision:
    """Normalize a precision spec to a :class:`Precision`.

    ``None`` means "whatever is currently active"; strings are looked up
    in :data:`PRECISIONS`; a :class:`Precision` passes through.
    """
    if precision is None:
        return get_precision()
    if isinstance(precision, Precision):
        return precision
    policy = PRECISIONS.get(precision)
    if policy is None:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of "
            f"{sorted(PRECISIONS)}"
        )
    return policy


_ACTIVE: Precision = PRECISIONS["double"]


def get_precision() -> Precision:
    """The active process-wide precision policy."""
    return _ACTIVE


def set_precision(precision: Union[str, Precision]) -> Precision:
    """Install a policy process-wide; returns the resolved object."""
    global _ACTIVE
    if precision is None:
        raise ValueError("set_precision needs an explicit policy; use "
                         "precision_scope(None) for a no-op scope")
    _ACTIVE = resolve_precision(precision)
    return _ACTIVE


class precision_scope:
    """Context manager installing a policy for the duration of a block.

    ``precision_scope(None)`` is a deliberate no-op (the ambient policy
    stays active), which lets callers thread an optional override
    without branching.  Usable as a decorator, mirroring ``no_grad``.
    """

    def __init__(self, precision: Union[str, Precision, None]) -> None:
        self._requested = precision

    def __enter__(self) -> "precision_scope":
        global _ACTIVE
        self._previous = _ACTIVE
        if self._requested is not None:
            _ACTIVE = resolve_precision(self._requested)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = self._previous

    def __call__(self, fn):
        def wrapper(*args, **kwargs):
            with precision_scope(self._requested):
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


def _init_from_env() -> None:
    """Install the ``REPRO_PRECISION`` policy (import-time; re-invoked by
    tests after monkeypatching the environment)."""
    raw = os.environ.get(_PRECISION_ENV)
    set_precision(raw if raw else "double")


_init_from_env()
