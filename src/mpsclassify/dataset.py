"""IDX image/label loading, block-mean downsampling, and seeded subsets.

The IDX files are the ubyte format MNIST and Fashion-MNIST ship in:
a big-endian magic (0x00000803 for [count, rows, cols] image tensors,
0x00000801 for label vectors), the dimension sizes as u32, then the raw
bytes. Gzipped files are read transparently. Pixels are normalized to
[0, 1] by dividing by 255.

Nothing here downloads anything; see the README for where to place the
files. The synthetic generators at the bottom exist so the rest of the
system can be exercised without any files at all.
"""

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, IdxParseError
from .tensor import DTYPE

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# Standard file stems; a .gz suffix is also accepted.
SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


@dataclass
class ImageSet:
    """Flattened images [count, height*width] in [0, 1] plus integer labels."""

    images: np.ndarray
    labels: np.ndarray
    source: str
    height: int
    width: int
    downsample_factor: int = 1

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def n_sites(self) -> int:
        return self.images.shape[1]

    def summary(self) -> str:
        hist = label_histogram(self.labels)
        return (
            f"{self.source}: {self.count} images of {self.height}x{self.width} "
            f"(N={self.n_sites}), labels {hist}"
        )


def _read_bytes(path) -> bytes:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def _parse_header(raw: bytes, expect_magic: int, n_dims: int, path) -> tuple:
    header_len = 4 + 4 * n_dims
    if len(raw) < header_len:
        raise IdxParseError(
            f"{path}: file too short for an IDX header ({len(raw)} bytes)"
        )
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expect_magic:
        raise IdxParseError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expect_magic:08x}"
        )
    dims = struct.unpack(f">{n_dims}I", raw[4:header_len])
    return dims, raw[header_len:]


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image tensor as float64 [count, rows, cols] in [0, 1]."""
    raw = _read_bytes(path)
    (count, rows, cols), payload = _parse_header(raw, IMAGE_MAGIC, 3, path)
    expected = count * rows * cols
    if len(payload) != expected:
        raise IdxParseError(
            f"{path}: payload holds {len(payload)} bytes, header promises {expected}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)
    return pixels.astype(DTYPE) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label vector as int64 [count]."""
    raw = _read_bytes(path)
    (count,), payload = _parse_header(raw, LABEL_MAGIC, 1, path)
    if len(payload) != count:
        raise IdxParseError(
            f"{path}: payload holds {len(payload)} labels, header promises {count}"
        )
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_image_set(images_path, labels_path, source: str = "") -> ImageSet:
    """Pair an image file with its label file, cross-checking the counts."""
    pixels = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if pixels.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"image count {pixels.shape[0]} != label count {labels.shape[0]} "
            f"({images_path} vs {labels_path})"
        )
    count, rows, cols = pixels.shape
    return ImageSet(
        images=pixels.reshape(count, rows * cols),
        labels=labels,
        source=source or str(images_path),
        height=rows,
        width=cols,
    )


def find_idx_file(directory, stem: str):
    """Resolve ``stem`` or ``stem.gz`` inside ``directory``; None if absent."""
    directory = Path(directory)
    for name in (stem, stem + ".gz"):
        candidate = directory / name
        if candidate.is_file():
            return candidate
    return None


def load_split(data_dir, split: str) -> ImageSet:
    """Load the train or test split from a directory of standard IDX files."""
    if split not in SPLIT_FILES:
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    image_stem, label_stem = SPLIT_FILES[split]
    images_path = find_idx_file(data_dir, image_stem)
    labels_path = find_idx_file(data_dir, label_stem)
    if images_path is None or labels_path is None:
        raise FileNotFoundError(
            f"no {split} split under {data_dir}: expected {image_stem}[.gz] "
            f"and {label_stem}[.gz]"
        )
    return load_image_set(images_path, labels_path, source=f"{Path(data_dir).name}/{split}")


# -- transforms ----------------------------------------------------------------


def downsample_images(images: np.ndarray, height: int, width: int, factor: int) -> np.ndarray:
    """Block-mean pooling of flattened images by an integer factor."""
    images = np.asarray(images, dtype=DTYPE)
    if factor < 1:
        raise ConfigError(f"downsample factor must be >= 1, got {factor}")
    if factor == 1:
        return images
    if height % factor or width % factor:
        raise ConfigError(
            f"{height}x{width} images do not divide into {factor}x{factor} blocks"
        )
    if images.ndim != 2 or images.shape[1] != height * width:
        raise DimensionError(
            f"expected [count, {height * width}] images, got {images.shape}"
        )
    count = images.shape[0]
    blocks = images.reshape(count, height // factor, factor, width // factor, factor)
    pooled = blocks.mean(axis=(2, 4))
    return pooled.reshape(count, (height // factor) * (width // factor))


def downsample(s: ImageSet, factor: int) -> ImageSet:
    """Downsampled copy of an image set; factor 1 returns an unchanged copy."""
    pooled = downsample_images(s.images, s.height, s.width, factor)
    return ImageSet(
        images=pooled,
        labels=s.labels.copy(),
        source=s.source,
        height=s.height // factor,
        width=s.width // factor,
        downsample_factor=s.downsample_factor * factor,
    )


def take(s: ImageSet, count: int, seed: int) -> ImageSet:
    """Seeded subset without replacement, kept in the order drawn."""
    if not 0 <= count <= s.count:
        raise ConfigError(f"cannot take {count} images from a set of {s.count}")
    rng = np.random.default_rng(seed)
    picked = rng.choice(s.count, size=count, replace=False)
    return ImageSet(
        images=s.images[picked],
        labels=s.labels[picked],
        source=f"{s.source}[{count}@seed{seed}]",
        height=s.height,
        width=s.width,
        downsample_factor=s.downsample_factor,
    )


def label_histogram(labels: np.ndarray, n_labels: int | None = None) -> list[int]:
    labels = np.asarray(labels)
    if n_labels is None:
        n_labels = int(labels.max()) + 1 if labels.size else 0
    return np.bincount(labels, minlength=n_labels).tolist()


# -- synthetic fixtures --------------------------------------------------------


def _smooth(field: np.ndarray, passes: int = 2) -> np.ndarray:
    """Cheap box blur with wraparound; keeps the generator dependency-free."""
    out = field
    for _ in range(passes):
        acc = out.copy()
        for axis in (0, 1):
            for shift in (-1, 1):
                acc = acc + np.roll(out, shift, axis=axis)
        out = acc / 5.0
    return out


def _check_count(count: int) -> None:
    if count < 0:
        raise ConfigError(f"cannot generate {count} images")


def synthetic_blobs(count: int, seed: int = 0) -> ImageSet:
    """Two-class 4x4 toy set: bright top-left vs bright bottom-right corner."""
    _check_count(count)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=count)
    images = rng.uniform(0.0, 0.25, size=(count, 4, 4))
    for i, label in enumerate(labels):
        block = (slice(0, 2), slice(0, 2)) if label == 0 else (slice(2, 4), slice(2, 4))
        images[i][block] += 0.75
    return ImageSet(
        images=np.clip(images, 0.0, 1.0).reshape(count, 16),
        labels=labels.astype(np.int64),
        source=f"synthetic-blobs(seed={seed})",
        height=4,
        width=4,
    )


def synthetic_digits(
    count: int,
    seed: int = 0,
    side: int = 14,
    n_classes: int = 10,
    template_seed: int = 12345,
) -> ImageSet:
    """Ten-class stand-in at desk scale: smoothed random template per class,
    jittered by a one-pixel roll and additive noise. Useful where the real
    scanned digits are not on disk.

    The class templates come from ``template_seed`` alone, so sets drawn
    with different ``seed`` values share the same task and can serve as
    train/test splits of each other. ``side`` must be at least 2 and
    ``n_classes`` at least 1 (``ConfigError``).
    """
    _check_count(count)
    if side < 2 or n_classes < 1:
        raise ConfigError(f"synthetic digits need side >= 2 and n_classes >= 1, "
                          f"got side={side}, n_classes={n_classes}")
    template_rng = np.random.default_rng(template_seed)
    rng = np.random.default_rng(seed)
    templates = np.stack(
        [_smooth(template_rng.uniform(0.0, 1.0, size=(side, side))) for _ in range(n_classes)]
    )
    templates -= templates.min(axis=(1, 2), keepdims=True)
    templates /= templates.max(axis=(1, 2), keepdims=True)
    labels = rng.integers(0, n_classes, size=count)
    # Per image the stream yields the row shift, the column shift, then the
    # noise, so the draws stay in that order; the templates are added after.
    images = np.empty((count, side, side), dtype=DTYPE)
    shifts = np.empty((count, 2), dtype=np.int64)
    for i in range(count):
        shifts[i] = rng.integers(-1, 2), rng.integers(-1, 2)
        images[i] = rng.uniform(0.0, 0.25, size=(side, side))
    # One group per (label, shift), so the temporary is a group's rows, not the set.
    groups = (labels * 3 + shifts[:, 0] + 1) * 3 + shifts[:, 1] + 1
    for group in np.unique(groups):
        rows = np.flatnonzero(groups == group)
        label, shift = labels[rows[0]], tuple(shifts[rows[0]])
        images[rows] += 0.75 * np.roll(templates[label], shift, axis=(0, 1))
    np.clip(images, 0.0, 1.0, out=images)
    return ImageSet(
        images=images.reshape(count, side * side),
        labels=labels.astype(np.int64),
        source=f"synthetic-digits(seed={seed})",
        height=side,
        width=side,
    )
