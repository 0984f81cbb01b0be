"""``train_ours_c``: the paper's headline recipe, in process.

Roughness-aware training -> SLR sparsification -> scoring -> 2-pi
smoothing (``run_recipe("ours_c", ...)``) on the digits family at the
laptop geometry (n=40), double precision, 600 training samples and 4
baseline epochs.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import catalog
from .common import Job, Outcome, check_attribution, faster_windows, \
    median, note, peak_rss_mb_self, percentile, tail
from .tracing import COMPUTE_TARGETS, STAGE_TARGETS, Patcher, Tracer, \
    compute_layers, install

NAME = "train_ours_c"
SETUP_REPEATS = 3
#: Recipes per run at least, so that the faster half of the step
#: windows holds enough steps for the tail percentile.
MIN_RECIPES = 3
#: Training steps per window (one to two seconds); the step metrics come
#: from the faster half of the windows.
STEP_WINDOW = 10
EXPECTED_FILE = Path(__file__).with_name("expected.json")


def config_for(seed: int):
    from repro.pipeline import ExperimentConfig

    return ExperimentConfig.laptop("digits", n=40, seed=seed, n_train=600,
                                   n_test=200, baseline_epochs=4,
                                   precision="double")


def trained_samples(config) -> int:
    """Samples through every optimizer step: dense epochs, SLR inner
    epochs per outer iteration, and the masked fine-tune."""
    slr = config.slr
    epochs = (config.baseline_epochs
              + slr.outer_iterations * slr.inner_epochs
              + slr.finetune_epochs)
    return config.n_train * epochs


def warm_config(config):
    """A few-second version of ``config``: same geometry, one batch."""
    return config.with_overrides(n_train=config.batch_size, n_test=50,
                                 baseline_epochs=1)


def training_seconds(result) -> float:
    """Wall time of the stages that run optimizer steps over samples."""
    return sum(record.wall_time for record in result.stages
               if record.name in ("train", "sparsify"))


def expected_table() -> Dict[str, Dict[str, float]]:
    return json.loads(EXPECTED_FILE.read_text())[NAME]


def recipe_seed(seed: int) -> int:
    """The recipe seed for a benchmark seed: the seeds with recorded
    accuracy and roughness, taken in turn."""
    return seed % len(expected_table())


class StepClock:
    """Training-step latencies: the first ``DONN.forward`` after an
    optimizer's ``zero_grad`` to the end of its ``Adam.step``.

    Both trainers (dense and SLR) run zero_grad -> forward -> backward
    -> step per batch.  Optimizer steps with no model forward in between
    (the 2-pi stage's mask optimisation) are not training steps and are
    skipped.
    """

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self._started = None

    def install(self, patcher: Patcher) -> None:
        from repro.autodiff.optim import Adam, Optimizer
        from repro.donn.model import DONN

        zero_grad = Optimizer.__dict__["zero_grad"]
        forward = DONN.__dict__["forward"]
        step = Adam.__dict__["step"]

        @functools.wraps(zero_grad)
        def timed_zero_grad(optimizer):
            self._started = None
            return zero_grad(optimizer)

        @functools.wraps(forward)
        def timed_forward(model, inputs):
            if self._started is None:
                self._started = time.perf_counter()
            return forward(model, inputs)

        @functools.wraps(step)
        def timed_step(optimizer):
            result = step(optimizer)
            if self._started is not None:
                self.latencies_ms.append(
                    (time.perf_counter() - self._started) * 1e3)
                self._started = None
            return result

        patcher.replace(Optimizer, "zero_grad", timed_zero_grad)
        patcher.replace(DONN, "forward", timed_forward)
        patcher.replace(Adam, "step", timed_step)


def _recipe(config, data):
    from repro.pipeline import run_recipe

    start = time.perf_counter()
    result = run_recipe("ours_c", config, data=data)
    return result, time.perf_counter() - start


def _check_result(outcome: Outcome, result, expected) -> bool:
    ok = outcome.check(result.accuracy == expected["accuracy"],
                       f"accuracy {result.accuracy!r} != recorded "
                       f"{expected['accuracy']!r}")
    # Equal to the recorded value up to the last few ulps.
    return outcome.check(
        abs(result.roughness_after - expected["roughness_after"])
        <= 1e-12 * abs(expected["roughness_after"]),
        f"roughness_after {result.roughness_after!r} != recorded "
        f"{expected['roughness_after']!r}") and ok


def _check_engine(outcome: Outcome, model, test) -> float:
    """Max |engine logits - composed autodiff logits| on the test set,
    checked against the double policy's forward tolerance."""
    from repro.autodiff import no_grad
    from repro.autodiff.fused import fused_disabled
    from repro.backend import PRECISIONS, precision_scope

    with precision_scope("double"):
        engine = model.inference_engine(precision="double")
        served = engine.logits(test.images)
        with fused_disabled(), no_grad():
            composed = model.forward(test.images).data
    deviation = float(np.max(np.abs(served - composed)))
    atol = PRECISIONS["double"].forward_atol
    outcome.check(deviation <= atol,
                  f"engine logits deviate from the composed forward by "
                  f"{deviation:.3g} > {atol:g}")
    return deviation


def run(job: Job) -> Outcome:
    from repro.pipeline import prepare_data, run_recipe

    seed = recipe_seed(job.seed)
    expected = expected_table()[str(seed)]
    config = config_for(seed)
    note(f"{NAME}: recipe seed {seed} (benchmark seed {job.seed}), "
         f"{config.n_train} train samples, {config.baseline_epochs} "
         f"baseline epochs, n={config.system.n}")

    tracer = Tracer()
    with Patcher(tracer) as patcher:
        clock = StepClock()
        clock.install(patcher)

        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            data = prepare_data(config)
            setups.append(time.perf_counter() - start)

        # A short recipe on the same geometry first, so kernel caches,
        # scratch buffers and first-call allocations are in place.
        run_recipe("ours_c", warm_config(config),
                   data=prepare_data(warm_config(config)))
        clock.latencies_ms.clear()

        walls, results = [], []
        begin = time.perf_counter()
        while len(walls) < MIN_RECIPES \
                or time.perf_counter() - begin < job.seconds:
            result, wall = _recipe(config, data)
            walls.append(wall)
            results.append(result)
            if job.trace and len(walls) == MIN_RECIPES:
                break
        peak_rss = peak_rss_mb_self()
        if job.trace:
            install(patcher, COMPUTE_TARGETS + STAGE_TARGETS)
            traced_start = time.perf_counter()
            traced, traced_wall = _recipe(config, data)
            traced_end = time.perf_counter()
            results.append(traced)

    outcome = Outcome(attempted=0, failed=0)
    for result in results:
        outcome.attempted += 1
        if not _check_result(outcome, result, expected):
            outcome.failed += 1
    deviation = _check_engine(outcome, results[-1].model, data[1])

    steps = faster_windows(clock.latencies_ms, STEP_WINDOW)
    pct = catalog.TAIL_PCT[NAME]
    tail_ms = tail(steps, pct)
    outcome.check(tail_ms is not None,
                  f"{len(steps)} steps in the faster windows do not "
                  f"support p{pct:g}")
    # Every step trains one full batch.
    outcome.check(config.n_train % config.batch_size == 0,
                  f"{config.n_train} samples do not split into batches of "
                  f"{config.batch_size}")
    outcome.samples = len(steps)
    outcome.end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": config.batch_size * len(steps)
        / (sum(steps) / 1e3),
        "p50_ms": median(steps),
        "tail_ms": tail_ms if tail_ms is not None
        else percentile(steps, pct),
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": peak_rss,
    }
    last = results[-1]
    note(f"  recipes={len(walls)} wall_s={median(walls):.3f} "
         f"accuracy={last.accuracy} roughness_after={last.roughness_after!r}"
         f" (recorded {expected['accuracy']} / "
         f"{expected['roughness_after']!r})")
    stage_rate = median([trained_samples(config) / training_seconds(result)
                         for result in results[:len(walls)]])
    note(f"  train + sparsify stages: {stage_rate:.1f} samples/s (median "
         f"over recipes, every step counted)")
    note(f"  steps={len(steps)} of {len(clock.latencies_ms)} (faster half "
         f"of {STEP_WINDOW}-step windows) p50_ms={median(steps):.2f} "
         f"p{pct:g}_ms={percentile(steps, pct):.2f} "
         f"engine_vs_composed_max_abs={deviation:.3g}")
    stages = {record.name: record.wall_time for record in last.stages}
    note("  stages: " + " ".join(f"{name}={wall:.3f}s"
                                 for name, wall in stages.items()))
    if job.trace:
        # The recipe stages are the layers that split the traced wall.
        unattributed = traced_end - traced_start - tracer.covered(
            threading.get_ident(), traced_start, traced_end)
        check_attribution(outcome, unattributed, traced_end - traced_start,
                          catalog.UNATTRIBUTED_SLACK, "traced recipe wall")
        outcome.layers = _layers(tracer, stages, traced_wall,
                                 traced_wall - median(walls), unattributed)
    return outcome


def _layers(tracer: Tracer, stages: Dict[str, float], wall: float,
            overhead: float, unattributed: float) -> Dict[str, float]:
    from repro.runtime.kernel_cache import cache_info

    selfs = tracer.self_seconds()
    counts = tracer.counters
    layers = {f"pipeline.stage.{name}_s": stages.get(name, 0.0)
              for name in ("train", "sparsify", "score", "twopi")}
    layers.update(compute_layers(selfs, counts, wall))
    cache = cache_info()
    layers.update({
        "runtime.kernel_cache_hits": cache["hits"],
        "runtime.kernel_cache_misses": cache["misses"],
        "trace.wall_s": wall,
        "trace.overhead_s": overhead,
        "trace.unattributed_s": unattributed,
    })
    return layers


def record(seeds) -> Dict[str, Dict[str, float]]:
    """Accuracy and roughness of the recipe at each seed (to refresh
    ``expected.json`` after a deliberate numerical change)."""
    from repro.pipeline import prepare_data, run_recipe

    table = {}
    for seed in seeds:
        config = config_for(seed)
        result = run_recipe("ours_c", config, data=prepare_data(config))
        table[str(seed)] = {"accuracy": result.accuracy,
                            "roughness_after": result.roughness_after}
        note(f"seed {seed}: {table[str(seed)]}")
    return table
