"""Properties of the shared pruned hop (:func:`repro.runtime.hop.hop`).

With ``P`` the hop through the prescaled ``H`` and ``P^H`` the hop
through its conjugate, the pass must be the exact adjoint pair
(``<P x, y> == <x, P^H y>``) and must never amplify a field: a
band-limited angular-spectrum or a Fresnel transfer function has
``|H| <= 1``, and the crop only removes energy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optics import SimulationGrid
from repro.runtime import get_kernel
from repro.runtime.hop import hop

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
