"""Input encoding: images onto the coherent source field (Sec. III-A).

The paper interpolates 28 x 28 dataset images up to the 200 x 200 mask
resolution and encodes them on the amplitude of the 532 nm laser field.
This module provides the batched bilinear interpolation and the
amplitude-encoding step (with optional unit-power normalization so detector
readings are comparable across images).
"""

from __future__ import annotations

import numpy as np

__all__ = ["bilinear_resize", "encode_amplitude", "check_encodable"]


def bilinear_resize(images: np.ndarray, size: int) -> np.ndarray:
    """Bilinearly resample ``images`` (``(..., h, w)``) to ``(..., size, size)``.

    Uses the half-pixel-center convention (as ``align_corners=False``
    in the deep-learning world): source coordinate of destination pixel
    ``i`` is ``(i + 0.5) * scale - 0.5``, clamped to the valid range.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim < 2:
        raise ValueError("images must have at least 2 dimensions")
    if size < 1:
        raise ValueError(f"target size must be positive, got {size}")
    h, w = images.shape[-2], images.shape[-1]

    def source_axis(n_src: int) -> tuple:
        scale = n_src / size
        coord = (np.arange(size) + 0.5) * scale - 0.5
        coord = np.clip(coord, 0.0, n_src - 1.0)
        low = np.floor(coord).astype(int)
        high = np.minimum(low + 1, n_src - 1)
        frac = coord - low
        return low, high, frac

    y0, y1, fy = source_axis(h)
    x0, x1, fx = source_axis(w)

    top = (
        images[..., y0[:, None], x0[None, :]] * (1 - fx)[None, :]
        + images[..., y0[:, None], x1[None, :]] * fx[None, :]
    )
    bottom = (
        images[..., y1[:, None], x0[None, :]] * (1 - fx)[None, :]
        + images[..., y1[:, None], x1[None, :]] * fx[None, :]
    )
    return top * (1 - fy)[:, None] + bottom * fy[:, None]


def encode_amplitude(
    images: np.ndarray,
    size: int,
    normalize: bool = True,
    dtype=np.complex128,
) -> np.ndarray:
    """Encode images as the amplitude of a unit-phase coherent field.

    Parameters
    ----------
    images:
        ``(batch, h, w)`` or ``(h, w)`` array of non-negative intensities.
    size:
        Mask resolution to interpolate to (the paper uses 200).
    normalize:
        Scale each field to unit total power, making detector intensity
        sums comparable across images with different ink coverage.
    dtype:
        Complex dtype of the returned field; the single-precision
        inference fast path asks for ``complex64`` directly instead of
        round-tripping through a complex128 intermediate.

    Returns
    -------
    Complex field array of shape ``(batch, size, size)`` (a singleton batch
    axis is added for 2-D inputs).

    Raises ``ValueError`` for negative intensities and, when normalizing,
    for an image whose total power is not finite (NaN input, or values so
    large that their squares overflow float64).
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 2:
        images = images[None]
    if images.ndim != 3:
        raise ValueError(
            f"expected (batch, h, w) or (h, w) images, got shape {images.shape}"
        )
    if np.any(images < 0):
        raise ValueError("image intensities must be non-negative")
    amplitude = bilinear_resize(images, size)
    if normalize:
        amplitude = amplitude / np.sqrt(
            np.maximum(_power(amplitude), 1e-30))[:, None, None]
    dtype = np.dtype(dtype)
    if dtype.kind != "c":
        raise TypeError(f"encoded fields are complex, got dtype {dtype}")
    return amplitude.astype(dtype)


def _power(amplitude: np.ndarray) -> np.ndarray:
    """Total power of each ``(size, size)`` image in the batch.

    A running sum in row-major pixel order: unlike ``np.sum``, whose
    pairwise blocking depends on the array's layout, it gives an image
    the same bits alone as in any batch.  It is also the order a batched
    ``np.sum`` took over the resampler's batch-innermost layout, so
    batches encode exactly as they always have.  Blank images have
    power 0 and stay blank after normalization.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.square(amplitude).reshape(len(amplitude), -1)
        power = np.cumsum(squares, axis=1)[:, -1]
    if not np.isfinite(power).all():
        raise ValueError("image power is not finite: the intensities are "
                         "NaN, or too large to square in float64")
    return power


def check_encodable(image: np.ndarray, size: int) -> None:
    """Raise the ``ValueError`` that :func:`encode_amplitude` would raise
    for ``image`` at ``size``, without encoding ordinary inputs.

    Bilinear resampling never exceeds the image's peak, so an image whose
    peak squared times ``size**2`` stays far from the float64 limit cannot
    overflow the power; only the rare image that might is encoded.  Lets a
    server reject a sample before it joins a micro-batch.
    """
    image = np.asarray(image, dtype=np.float64)
    if not image.size:
        return  # left to the caller's shape checks
    if image.min() < 0:
        raise ValueError("image intensities must be non-negative")
    if not image.max() < _SAFE_PEAK / size:  # NaN compares false too
        encode_amplitude(image, size)


#: Peak times grid size below which the encoded power cannot overflow
#: (half the float64 range, for the summation's rounding).
_SAFE_PEAK = float(np.sqrt(np.finfo(np.float64).max / 2))
