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

from .errors import ConfigError, DimensionError, IdxParseError, check_integer
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
    """Block-mean pooling of flattened images by an integer factor; always a new
    array, so factor 1 returns a copy."""
    images = np.asarray(images, dtype=DTYPE)
    check_integer("factor", factor, 1)
    if height % factor or width % factor:
        raise ConfigError(
            f"{height}x{width} images do not divide into {factor}x{factor} blocks"
        )
    if images.ndim != 2 or images.shape[1] != height * width:
        raise DimensionError(
            f"expected [count, {height * width}] images, got {images.shape}"
        )
    if factor == 1:
        return images.copy()
    count = images.shape[0]
    blocks = images.reshape(count, height // factor, factor, width // factor, factor)
    pooled = blocks.mean(axis=(2, 4))
    return pooled.reshape(count, (height // factor) * (width // factor))


def downsample(s: ImageSet, factor: int) -> ImageSet:
    """Downsampled copy of an image set; factor 1 returns an unchanged copy that
    shares no array with ``s``."""
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
    check_integer("count", count, 0)
    check_integer("seed", seed, 0)
    if count > s.count:
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
    return np.bincount(np.asarray(labels), minlength=n_labels or 0).tolist()


# -- synthetic fixtures --------------------------------------------------------

# Seeds the class templates of ``synthetic_digits``, so every set shares one task.
TEMPLATE_SEED = 12345
# Rows per add of ``synthetic_digits``, so its temporary is a block, not the set.
ADD_BLOCK = 256


def _smooth(field: np.ndarray, passes: int = 2) -> np.ndarray:
    """Wraparound box blur of the last two axes, so a stack blurs at once; dependency-free."""
    for _ in range(passes):
        acc = field.copy()
        for axis in (-2, -1):
            for shift in (-1, 1):
                acc += np.roll(field, shift, axis=axis)
        field = acc / 5.0
    return field


def synthetic_blobs(count: int, seed: int = 0) -> ImageSet:
    """Two-class 4x4 toy set: bright top-left vs bright bottom-right corner."""
    check_integer("count", count, 0)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=count)
    images = rng.uniform(0.0, 0.25, size=(count, 4, 4))
    images[labels == 0, :2, :2] += 0.75
    images[labels == 1, 2:, 2:] += 0.75
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
) -> ImageSet:
    """Ten-class stand-in at desk scale, for where the real scanned digits are
    not on disk: 0.75 times a smoothed random template per class, rolled by a
    shift in {-1, 0, 1} per axis, plus noise in [0, 0.25). ``seed`` draws, in
    order, the labels [count], the shifts [count, 2], the noise [count, side, side].

    One call blurs the template stack once, rolls it to the nine shifts once and
    adds them to the noise ``ADD_BLOCK`` rows at a time, so only the adds grow with
    ``count``; a seeded set keeps the bytes of rolling and adding each image in turn.
    The class templates come from ``TEMPLATE_SEED`` alone, so sets drawn
    with different ``seed`` values share the same task and can serve as
    train/test splits of each other. ``count`` and ``seed`` must be at least 0,
    ``side`` at least 2 and ``n_classes`` at least 1 (``ConfigError``).
    """
    check_integer("count", count, 0)
    check_integer("seed", seed, 0)
    check_integer("side", side, 2)
    check_integer("n_classes", n_classes, 1)
    template_rng = np.random.default_rng(TEMPLATE_SEED)
    rng = np.random.default_rng(seed)
    templates = _smooth(template_rng.uniform(0.0, 1.0, size=(n_classes, side, side)))
    templates -= templates.min(axis=(1, 2), keepdims=True)
    templates /= templates.max(axis=(1, 2), keepdims=True)
    templates *= 0.75
    # [n_classes, 9, side, side]: shift (dy, dx) sits at 3 * dy + dx + 4.
    shifted = np.stack([np.roll(templates, (i - 1, j - 1), (1, 2)) for i, j in np.ndindex(3, 3)], 1)
    labels = rng.integers(0, n_classes, size=count)
    shifts = rng.integers(-1, 2, size=(count, 2))
    which = 3 * shifts[:, 0] + shifts[:, 1] + 4
    # 0.25 * U is uniform(0.0, 0.25)'s 0.0 + 0.25 * U, bit for bit.
    images = rng.random((count, side, side))
    images *= 0.25
    for a in range(0, count, ADD_BLOCK):
        rows = slice(a, a + ADD_BLOCK)
        images[rows] += shifted[labels[rows], which[rows]]
    np.clip(images, 0.0, 1.0, out=images)
    return ImageSet(
        images=images.reshape(count, side * side),
        labels=labels.astype(np.int64),
        source=f"synthetic-digits(seed={seed})",
        height=side,
        width=side,
    )
