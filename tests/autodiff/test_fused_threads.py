"""Batch-sliced propagation: any thread budget gives the serial bits.

:func:`repro.runtime.hop.hop_batch` splits the fused op's propagations
into contiguous row slices on a thread pool.  Every transform and ``H``
multiply acts per row, so forward values and both VJPs must be
*identical* (``np.array_equal``, not a tolerance) to the budget-1 serial
pass, for batches below the minimum slice, batches that do not divide
evenly, every pad factor and both precisions.  A forked child must not
inherit the parent's pool threads (it would wait on them forever), and
pool-process initializers pin the budget to one thread.
"""

import multiprocessing
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, ops
from repro.autodiff.fused import diffmod, propagate
from repro.backend import get_workers, precision_scope, set_workers
from repro.optics import Propagator, SimulationGrid
from repro.runtime import hop as hop_module
from repro.runtime.hop import MIN_SLICE_ROWS, thread_budget


@contextmanager
def budget(workers):
    previous = get_workers()
    set_workers(workers)
    try:
        yield
    finally:
        set_workers(previous)


def make_propagator(n, pad_factor):
    grid = SimulationGrid(n=n, pixel_pitch=36e-6, wavelength=532e-9)
    return Propagator(grid, 3e-3, pad_factor=pad_factor)


def fused_outputs(case, workers):
    """Forward value plus field and phase gradients of ``diffmod``, and
    forward value plus field gradient of ``propagate``."""
    n, batch = case["n"], case["batch"]
    rng = np.random.default_rng(case["seed"])
    field_data = (rng.standard_normal((batch, n, n))
                  + 1j * rng.standard_normal((batch, n, n)))
    weights = rng.standard_normal((n, n))
    mask = (rng.random((n, n)) > 0.3).astype(float)
    propagator = make_propagator(n, case["pad_factor"])
    with budget(workers), precision_scope(case["precision"]):
        field = Tensor(field_data, requires_grad=True)
        phase = Tensor(weights, requires_grad=True)
        out = diffmod(field, phase, propagator, mask=mask)
        ops.sum(ops.abs2(out)).backward()
        bare_field = Tensor(field_data, requires_grad=True)
        bare = propagate(bare_field, propagator)
        ops.sum(ops.abs2(bare)).backward()
    return [out.data, field.grad, phase.grad, bare.data, bare_field.grad]


cases = st.fixed_dictionaries({
    "n": st.integers(min_value=2, max_value=12),
    "pad_factor": st.sampled_from([1, 2, 3]),
    # Below one slice, below two slices, and uneven multi-slice splits.
    "batch": st.integers(min_value=1, max_value=4 * MIN_SLICE_ROWS + 3),
    "precision": st.sampled_from(["double", "single"]),
    "seed": st.integers(min_value=0, max_value=2 ** 16),
})


@settings(max_examples=30, deadline=None)
@given(cases)
def test_sliced_equals_serial(case):
    serial = fused_outputs(case, workers=1)
    for workers in (2, 3):
        sliced = fused_outputs(case, workers=workers)
        for want, got in zip(serial, sliced):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("batch", [2 * MIN_SLICE_ROWS + 1,
                                   3 * MIN_SLICE_ROWS + 2])
def test_slices_cover_the_batch_on_several_threads(monkeypatch, batch):
    calls = []
    original = hop_module._hop_slice

    def recording(*args):
        calls.append((args[6], args[7], threading.get_ident()))
        return original(*args)

    monkeypatch.setattr(hop_module, "_hop_slice", recording)
    case = {"n": 6, "pad_factor": 2, "batch": batch,
            "precision": "double", "seed": 1}
    fused_outputs(case, workers=3)
    # diffmod forward, its adjoint, and the bare hop and its adjoint.
    assert len(calls) % 4 == 0
    per_hop = len(calls) // 4
    assert per_hop == min(3, batch // MIN_SLICE_ROWS)
    for start in range(0, len(calls), per_hop):
        spans = sorted(calls[start:start + per_hop])
        assert spans[0][0] == 0 and spans[-1][1] == batch
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(hi - lo >= MIN_SLICE_ROWS for lo, hi, _ in spans)
    assert len({ident for _, _, ident in calls}) > 1


def test_small_batches_stay_serial(monkeypatch):
    calls = []
    original = hop_module._hop_slice

    def recording(*args):
        calls.append(args[6:9])  # lo, hi, workers
        return original(*args)

    monkeypatch.setattr(hop_module, "_hop_slice", recording)
    case = {"n": 6, "pad_factor": 2, "batch": 2 * MIN_SLICE_ROWS - 1,
            "precision": "double", "seed": 1}
    fused_outputs(case, workers=3)
    # One serial slice per hop, with the backend's default workers.
    assert calls == [(0, 2 * MIN_SLICE_ROWS - 1, None)] * 4


def test_budget_follows_set_workers():
    cores = hop_module.usable_cores()
    with budget(None):
        assert thread_budget() == cores
    with budget(1):
        assert thread_budget() == 1
    with budget(5):
        assert thread_budget() == 5
    with budget(-1):
        assert thread_budget() == cores


def test_slice_errors_surface_after_every_slice_finished(monkeypatch):
    original = hop_module._hop_slice
    finished = []

    def failing(*args):
        if args[6] != 0:
            raise RuntimeError("slice failed")
        original(*args)
        finished.append(args[6])

    monkeypatch.setattr(hop_module, "_hop_slice", failing)
    case = {"n": 4, "pad_factor": 2, "batch": 2 * MIN_SLICE_ROWS,
            "precision": "double", "seed": 0}
    with pytest.raises(RuntimeError, match="slice failed"):
        fused_outputs(case, workers=2)
    assert finished == [0]


def test_concurrent_callers_share_the_pool():
    # More callers than cores, each slicing its own batch on the shared
    # pool while the interpreter switches threads as often as it can.
    cases = [{"n": 6 + k, "pad_factor": 1 + k % 3, "seed": k,
              "batch": 2 * MIN_SLICE_ROWS + k, "precision": "double"}
             for k in range(4)]
    serial = [fused_outputs(case, workers=1) for case in cases]
    results, errors = {k: [] for k in range(len(cases))}, []

    def worker(k):
        try:
            for _ in range(3):
                results[k].append(fused_outputs(cases[k], workers=3))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with budget(3):
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for k, want in enumerate(serial):
        assert len(results[k]) == 3
        for outputs in results[k]:
            for expected, got in zip(want, outputs):
                assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Fork safety
# ----------------------------------------------------------------------
def _forward_in_child(model, images, queue):
    with budget(2):
        queue.put(model.forward(images).data)


def test_forked_child_rebuilds_the_pool():
    from repro.donn import DONN, DONNConfig

    model = DONN(DONNConfig.laptop(n=12, num_layers=2,
                                   detector_region_size=2))
    images = np.random.default_rng(0).random((4 * MIN_SLICE_ROWS, 12, 12))
    with budget(2):
        expected = model.forward(images).data  # the parent's pool is live
    assert hop_module._POOL is not None
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_forward_in_child,
                        args=(model, images, queue))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Pool-process initializers
# ----------------------------------------------------------------------
def test_recipe_worker_initializer_pins_one_thread(monkeypatch):
    import signal

    from repro.backend import backend_name, get_precision
    from repro.pipeline import runner

    monkeypatch.setattr(signal, "signal", lambda *args: None)
    with budget(None):
        runner._init_worker(None, backend_name(), get_precision().name)
        assert get_workers() == 1
        assert thread_budget() == 1


def test_shard_initializer_pins_one_thread(monkeypatch, tmp_path):
    from repro.donn import DONN, DONNConfig
    from repro.serve import workers
    from repro.utils.serialization import save_model

    model = DONN(DONNConfig.laptop(n=12, num_layers=1,
                                   detector_region_size=2))
    artifact = tmp_path / "model.npz"
    save_model(artifact, model)
    monkeypatch.setattr(workers, "_WORKER_ENGINE", None)
    with budget(None):
        workers._init_process_shard(str(artifact), "double", 8, None, 0)
        assert get_workers() == 1
        assert thread_budget() == 1
