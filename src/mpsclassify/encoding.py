"""Per-pixel feature maps and factored image encodings.

A grayscale image of N pixels becomes N feature vectors of length d = 2,
one per pixel. The implied tensor product of those vectors (the full
2^N-component data state) is never materialized.
"""

import enum

import numpy as np

from .errors import DomainError
from .tensor import DTYPE


class FeatureMap(enum.Enum):
    """Built-in local feature maps for normalized pixels p in [0, 1].

    LINEAR maps p to (1 - p, p); components sum to 1.
    TRIG maps p to (cos(pi*p/2), sin(pi*p/2)); Euclidean norm 1.
    Both send black (0) and white (1) to the two standard basis vectors.
    """

    LINEAR = "linear"
    TRIG = "trig"


DEFAULT_FEATURE_MAP = FeatureMap.LINEAR


def _features(fmap: FeatureMap, p: np.ndarray) -> np.ndarray:
    """[..., 2] features of pixels ``p``, written into one new array."""
    out = np.empty(p.shape + (2,), dtype=DTYPE)
    if fmap is FeatureMap.LINEAR:
        np.subtract(1.0, p, out=out[..., 0])
        out[..., 1] = p
        return out
    # cos(pi*p/2) written as sin(pi*(1-p)/2) so p = 0, 1 hit the basis
    # vectors exactly. Each sine runs on one contiguous angle array, since a
    # strided output may take another (SIMD) loop.
    half_pi = 0.5 * np.pi
    angle = np.subtract(1.0, p)
    angle *= half_pi
    out[..., 0] = np.sin(angle, out=angle)
    np.multiply(half_pi, p, out=angle)
    out[..., 1] = np.sin(angle, out=angle)
    return out


def check_pixels(images) -> np.ndarray:
    """A [B, N] batch of flattened images in [0, 1] as float64; raises ``DomainError`` otherwise."""
    p = np.asarray(images, dtype=DTYPE)
    if p.ndim != 2:
        raise DomainError(f"expected a [B, N] array of pixels, got shape {p.shape}")
    # NaN fails both comparisons; the mask is built only to name a bad pixel.
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        bad = (p < 0.0) | (p > 1.0) | ~np.isfinite(p)
        idx = int(np.argmax(bad.reshape(-1)))
        val = p.reshape(-1)[idx]
        raise DomainError(
            f"pixel value {val!r} at flat index {idx} outside [0, 1]; "
            "normalize before encoding"
        )
    return p


def encode_batch(fmap: FeatureMap, images) -> np.ndarray:
    """Encode a [B, N] batch of flattened images into [B, N, d] features."""
    return _features(fmap, check_pixels(images))
