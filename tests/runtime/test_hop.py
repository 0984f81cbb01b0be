"""Properties of the shared pruned hop (:func:`repro.runtime.hop.hop`).

With ``P`` the hop through the prescaled ``H`` and ``P^H`` the hop
through its conjugate, the pass must be the exact adjoint pair
(``<P x, y> == <x, P^H y>``) and must never amplify a field: a
band-limited angular-spectrum or a Fresnel transfer function has
``|H| <= 1``, and the crop only removes energy.

The hop runs in place on its plane and must hand every plane back with
zero border rows, also when a pass raises; a warmed batched hop must
not allocate a plane-sized temporary.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, ops
from repro.autodiff.fused import diffmod
from repro.autodiff.fused import propagate as propagate_op
from repro.backend import (available_backends, dispatch, get_workers,
                           set_backend, set_workers)
from repro.optics import Propagator, SimulationGrid
from repro.runtime import get_kernel
from repro.runtime.hop import MIN_SLICE_ROWS, hop, hop_batch

#: Relative bound per precision (against ``|x| |y|`` for the adjoint).
TOL = {"double": 1e-12, "single": 1e-5}
DTYPE = {"double": np.complex128, "single": np.complex64}

cases = st.fixed_dictionaries({
    "n": st.integers(min_value=2, max_value=24),
    "pad_factor": st.sampled_from([1, 2, 3]),
    "batch": st.integers(min_value=1, max_value=4),
    "precision": st.sampled_from(["double", "single"]),
    "method": st.sampled_from(["angular_spectrum", "fresnel"]),
    "distance": st.sampled_from([2e-4, 3e-3, 5e-2]),
    "seed": st.integers(min_value=0, max_value=2 ** 16),
})


def kernel_for(case):
    grid = SimulationGrid(n=case["n"], pixel_pitch=36e-6,
                          wavelength=532e-9)
    return get_kernel(grid, case["distance"], method=case["method"],
                      pad_factor=case["pad_factor"],
                      dtype=DTYPE[case["precision"]])


def propagate(fields, h, pad, n):
    """Embed, hop, crop — on a fresh plane."""
    side = h.shape[-1]
    work = np.zeros((fields.shape[0], side, side), dtype=h.dtype)
    work[:, pad:pad + n, pad:pad + n] = fields
    return hop(work, h, pad, n)[:, :, pad:pad + n]


def random_fields(case, offset=0):
    rng = np.random.default_rng(case["seed"] + offset)
    shape = (case["batch"], case["n"], case["n"])
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(cases)
def test_conj_hop_is_the_adjoint(case):
    kernel = kernel_for(case)
    n, pad = case["n"], kernel.pad
    x, y = random_fields(case), random_fields(case, offset=1)
    px = propagate(x, kernel.prescaled(), pad, n).astype(np.complex128)
    phy = propagate(y, kernel.prescaled_conj(), pad, n).astype(
        np.complex128)
    lhs, rhs = np.vdot(px, y), np.vdot(x, phy)
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= TOL[case["precision"]] * scale


@settings(max_examples=40, deadline=None)
@given(cases)
def test_hop_has_no_norm_gain(case):
    kernel = kernel_for(case)
    x = random_fields(case)
    px = propagate(x, kernel.prescaled(), kernel.pad, case["n"])
    gain = np.linalg.norm(px.astype(np.complex128)) / np.linalg.norm(x)
    assert gain <= 1.0 + TOL[case["precision"]]


# ----------------------------------------------------------------------
# The zero-border invariant of the in-place hop
# ----------------------------------------------------------------------
#: Two geometries with the same padded side (12) but different borders.
SHARED_SIDE = [(6, 2, 37), (4, 3, 40)]
BACKENDS = ["numpy"] + (["scipy"] if "scipy" in available_backends()
                        else [])
RUNTIME_TESTS = Path(__file__).resolve().parent
SRC = RUNTIME_TESTS.parents[1] / "src"


@pytest.fixture
def backend(request):
    """Pin the FFT backend and a two-slice thread budget for one test."""
    previous = get_workers()
    set_backend(request.param)
    set_workers(2)
    yield request.param
    set_workers(previous)
    set_backend("auto")


def geometry_outputs(n, pad_factor, batch):
    """``diffmod``'s value and both VJPs plus the bare hop and its VJP."""
    rng = np.random.default_rng(n * 100 + pad_factor)
    data = (rng.standard_normal((batch, n, n))
            + 1j * rng.standard_normal((batch, n, n)))
    weights = rng.standard_normal((n, n))
    grid = SimulationGrid(n=n, pixel_pitch=36e-6, wavelength=532e-9)
    propagator = Propagator(grid, 3e-3, pad_factor=pad_factor)
    field = Tensor(data, requires_grad=True)
    phase = Tensor(weights, requires_grad=True)
    out = diffmod(field, phase, propagator)
    ops.sum(ops.abs2(out)).backward()
    bare_field = Tensor(data, requires_grad=True)
    bare = propagate_op(bare_field, propagator)
    ops.sum(ops.abs2(bare)).backward()
    return [out.data, field.grad, phase.grad, bare.data, bare_field.grad]


def fresh_process_outputs(backend, n, pad_factor, batch, tmp_path):
    """:func:`geometry_outputs` in a new interpreter (empty scratch)."""
    target = tmp_path / f"{backend}-{n}-{pad_factor}.npz"
    script = (
        "import sys, numpy as np\n"
        f"sys.path.insert(0, {str(RUNTIME_TESTS)!r})\n"
        "from test_hop import geometry_outputs\n"
        f"np.savez({str(target)!r}, "
        f"*geometry_outputs({n}, {pad_factor}, {batch}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_BACKEND=backend,
               REPRO_FFT_WORKERS="2")
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)
    with np.load(target) as saved:
        return [saved[f"arr_{index}"] for index in range(5)]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_geometries_sharing_a_side_alternate_exactly(backend, tmp_path):
    fresh = {geometry: fresh_process_outputs(backend, *geometry, tmp_path)
             for geometry in SHARED_SIDE}
    for geometry in SHARED_SIDE * 3:
        for want, got in zip(fresh[geometry], geometry_outputs(*geometry)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def failing_after(real, axis):
    """``real`` that raises once its ``axis`` pass has run."""
    def transform(x, *args, **kwargs):
        result = real(x, *args, **kwargs)
        if kwargs.get("axis") == axis:
            raise RuntimeError("transform failed")
        return result
    return transform


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("name", ["fft", "ifft"])
def test_border_rows_stay_zero_when_a_pass_raises(backend, name,
                                                  monkeypatch):
    n, pad_factor, batch = 6, 2, 2 * MIN_SLICE_ROWS + 3
    kernel = kernel_for({"n": n, "pad_factor": pad_factor,
                         "precision": "double", "distance": 3e-3,
                         "method": "angular_spectrum"})
    h, pad, side = kernel.prescaled(), kernel.pad, kernel.padded_n
    fields = random_fields({"seed": 5, "batch": batch, "n": n})
    work = np.zeros((batch, side, side), dtype=h.dtype)
    out = np.empty((batch, n, n), dtype=h.dtype)
    expected = propagate(fields, h, pad, n)
    before = geometry_outputs(n, pad_factor, batch)

    # The column pass dirties the border rows (in place under scipy).
    real = getattr(dispatch, name)
    with monkeypatch.context() as patch:
        patch.setattr(dispatch, name, failing_after(real, -2))
        with pytest.raises(RuntimeError, match="transform failed"):
            hop_batch(fields, h, pad, n, work, out)
        with pytest.raises(RuntimeError, match="transform failed"):
            geometry_outputs(n, pad_factor, batch)
    assert not work[:, :pad].any() and not work[:, pad + n:].any()
    assert np.array_equal(hop_batch(fields, h, pad, n, work, out),
                          expected)
    for want, got in zip(before, geometry_outputs(n, pad_factor, batch)):
        assert np.array_equal(got, want)


@pytest.mark.skipif("scipy" not in available_backends(),
                    reason="numpy's FFTs ignore overwrite_x")
@pytest.mark.parametrize("workers", [1, 2])
def test_warm_hop_batch_allocates_no_plane(workers):
    n, batch = 40, 100
    kernel = kernel_for({"n": n, "pad_factor": 2, "precision": "double",
                         "distance": 3e-3, "method": "angular_spectrum"})
    h, pad, side = kernel.prescaled(), kernel.pad, kernel.padded_n
    fields = random_fields({"seed": 0, "batch": batch, "n": n})
    work = np.zeros((batch, side, side), dtype=h.dtype)
    out = np.empty((batch, n, n), dtype=h.dtype)
    previous = get_workers()
    set_backend("scipy")
    set_workers(workers)
    try:
        hop_batch(fields, h, pad, n, work, out)  # warm the pool
        tracemalloc.start()
        try:
            hop_batch(fields, h, pad, n, work, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        set_workers(previous)
        set_backend("auto")
    # One plane-sized temporary would be side^2 * batch * 16 = 10.24 MB.
    assert peak < 64 * 1024, peak
