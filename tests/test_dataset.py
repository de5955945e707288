"""IDX parsing against hand-built byte fixtures, plus transforms."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from mpsclassify.dataset import (
    ADD_BLOCK,
    _smooth,
    downsample,
    downsample_images,
    label_histogram,
    load_idx_images,
    load_idx_labels,
    load_image_set,
    load_split,
    synthetic_blobs,
    synthetic_digits,
    take,
)
from mpsclassify.errors import ConfigError, DimensionError, IdxParseError


def idx_image_bytes(pixels: np.ndarray) -> bytes:
    """Assemble an IDX image file from a [count, rows, cols] uint8 array."""
    count, rows, cols = pixels.shape
    return struct.pack(">IIII", 0x00000803, count, rows, cols) + pixels.tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 0x00000801, labels.shape[0]) + labels.tobytes()


@pytest.fixture
def tiny_pair(tmp_path):
    """Two 2x2 images with distinctive byte values, plus labels."""
    pixels = np.array(
        [[[0, 255], [128, 64]], [[255, 255], [0, 0]]], dtype=np.uint8
    )
    labels = np.array([3, 1], dtype=np.uint8)
    img_path = tmp_path / "imgs-idx3-ubyte"
    lbl_path = tmp_path / "lbls-idx1-ubyte"
    img_path.write_bytes(idx_image_bytes(pixels))
    lbl_path.write_bytes(idx_label_bytes(labels))
    return img_path, lbl_path


class TestIdxParsing:
    def test_known_pixel_values(self, tiny_pair):
        img_path, _ = tiny_pair
        images = load_idx_images(img_path)
        assert images.shape == (2, 2, 2)
        np.testing.assert_allclose(
            images[0], [[0.0, 1.0], [128 / 255, 64 / 255]], rtol=1e-15
        )
        np.testing.assert_array_equal(images[1], [[1.0, 1.0], [0.0, 0.0]])

    def test_labels(self, tiny_pair):
        _, lbl_path = tiny_pair
        labels = load_idx_labels(lbl_path)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [3, 1])

    def test_gzip_transparent(self, tiny_pair, tmp_path):
        img_path, _ = tiny_pair
        gzduplicate = tmp_path / "imgs-idx3-ubyte.gz"
        gz_bytes = gzip.compress(img_path.read_bytes())
        gzduplicate.write_bytes(gz_bytes)
        np.testing.assert_array_equal(
            load_idx_images(gzduplicate), load_idx_images(img_path)
        )

    def test_load_is_order_stable(self, tiny_pair):
        img_path, _ = tiny_pair
        np.testing.assert_array_equal(load_idx_images(img_path), load_idx_images(img_path))

    def test_wrong_magic_names_value_read(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0x00000777, 1, 2, 2) + bytes(4))
        with pytest.raises(IdxParseError, match="0x00000777"):
            load_idx_images(path)

    def test_image_magic_rejected_for_labels(self, tiny_pair):
        img_path, _ = tiny_pair
        with pytest.raises(IdxParseError, match="0x00000803"):
            load_idx_labels(img_path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(7))
        with pytest.raises(IdxParseError, match="7 bytes"):
            load_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(IdxParseError, match="too short"):
            load_idx_images(path)

    def test_count_mismatch_between_files(self, tiny_pair, tmp_path):
        img_path, _ = tiny_pair
        lbl3 = tmp_path / "three-labels"
        lbl3.write_bytes(idx_label_bytes(np.array([0, 1, 2], dtype=np.uint8)))
        with pytest.raises(IdxParseError, match="2"):
            load_image_set(img_path, lbl3)

    def test_image_set_fields(self, tiny_pair):
        img_path, lbl_path = tiny_pair
        s = load_image_set(img_path, lbl_path, source="tiny")
        assert s.count == 2
        assert s.n_sites == 4
        assert (s.height, s.width) == (2, 2)
        assert s.images.shape == (2, 4)
        assert "tiny" in s.summary()


class TestLoadSplit:
    def test_resolves_standard_names_with_gz(self, tmp_path):
        pixels = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.array([0, 1, 0], dtype=np.uint8)
        (tmp_path / "train-images-idx3-ubyte.gz").write_bytes(
            gzip.compress(idx_image_bytes(pixels))
        )
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(idx_label_bytes(labels))
        s = load_split(tmp_path, "train")
        assert s.count == 3
        assert "train" in s.source

    def test_missing_files_list_expected_names(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="t10k-images-idx3-ubyte"):
            load_split(tmp_path, "test")

    def test_bad_split_name(self, tmp_path):
        with pytest.raises(ConfigError):
            load_split(tmp_path, "validation")


class TestDownsample:
    def test_checkerboard_two_by_two(self):
        images = np.array([[0.0, 1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(
            downsample_images(images, height=2, width=2, factor=2), [[0.5]]
        )

    def test_constant_image_unchanged_values(self):
        images = np.full((2, 16), 0.3)
        out = downsample_images(images, 4, 4, 2)
        np.testing.assert_allclose(out, np.full((2, 4), 0.3), rtol=1e-15)

    def test_four_by_four_hand_blocks(self):
        img = np.arange(16, dtype=float).reshape(1, 16)
        out = downsample_images(img, 4, 4, 2)
        np.testing.assert_array_equal(out, [[2.5, 4.5, 10.5, 12.5]])

    def test_factor_one_is_identity(self):
        images = np.random.default_rng(0).uniform(0, 1, (3, 9))
        np.testing.assert_array_equal(downsample_images(images, 3, 3, 1), images)

    def test_factor_one_shares_no_array_with_its_source(self):
        s = synthetic_digits(5, seed=0)
        d = downsample(s, 1)
        d.images[0, 0] = 7.0
        assert s.images[0, 0] != 7.0

    def test_factor_one_checks_the_shape(self):
        """As every other factor does, not handing the [3, 5] array back."""
        with pytest.raises(DimensionError, match=r"expected \[count, 196\] images"):
            downsample_images(np.zeros((3, 5)), 14, 14, 1)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError, match="divide"):
            downsample_images(np.zeros((1, 9)), 3, 3, 2)

    def test_wrong_pixel_count_rejected(self):
        with pytest.raises(DimensionError):
            downsample_images(np.zeros((1, 10)), 4, 4, 2)

    def test_set_level_metadata(self):
        s = synthetic_digits(5, seed=0)
        down = downsample(s, 2)
        assert (down.height, down.width) == (7, 7)
        assert down.n_sites == 49
        assert down.downsample_factor == 2
        np.testing.assert_array_equal(down.labels, s.labels)


class TestTake:
    def test_deterministic(self):
        s = synthetic_digits(200, seed=0)
        a = take(s, 50, seed=3)
        b = take(s, 50, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rows_come_from_source_with_aligned_labels(self):
        s = synthetic_blobs(100, seed=0)
        sub = take(s, 20, seed=1)
        for img, lbl in zip(sub.images, sub.labels):
            matches = np.where((s.images == img).all(axis=1))[0]
            assert len(matches) >= 1
            assert lbl in s.labels[matches]

    def test_take_all_is_a_permutation(self):
        s = synthetic_blobs(30, seed=0)
        sub = take(s, 30, seed=9)
        np.testing.assert_array_equal(
            np.sort(sub.images, axis=0), np.sort(s.images, axis=0)
        )
        assert not np.array_equal(sub.labels, s.labels)  # seed 9 reorders

    def test_subset_retains_all_ten_classes(self):
        s = synthetic_digits(5000, seed=0)
        sub = take(s, 1000, seed=0)
        assert set(sub.labels.tolist()) == set(range(10))

    def test_too_many_rejected(self):
        with pytest.raises(ConfigError):
            take(synthetic_blobs(10, seed=0), 11, seed=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="-5"):
            take(synthetic_blobs(10, seed=0), -5, seed=0)


class TestSyntheticSets:
    def test_blobs_shapes_and_range(self):
        s = synthetic_blobs(25, seed=0)
        assert s.images.shape == (25, 16)
        assert s.labels.shape == (25,)
        assert s.images.min() >= 0.0 and s.images.max() <= 1.0
        assert set(s.labels.tolist()) <= {0, 1}

    def test_digits_shapes_and_range(self):
        s = synthetic_digits(40, seed=1)
        assert s.images.shape == (40, 196)
        assert s.images.min() >= 0.0 and s.images.max() <= 1.0
        assert s.labels.max() < 10

    @pytest.mark.parametrize(
        "count, seed, side",
        [(2000, 1, 14), (37, 5, 14), (1, 4, 14), (0, 0, 14), (60, 9, 28),
         (3 * ADD_BLOCK, 6, 14), (4 * ADD_BLOCK + 1, 2, 14), (ADD_BLOCK + 1, 3, 28)],
    )
    def test_digits_match_the_per_image_draw(self, count, seed, side):
        """Bit for bit what rolling and adding each image gives, with the stream drawn
        as labels [count], then shifts [count, 2], then noise [count, side, side]."""
        template_rng = np.random.default_rng(12345)
        rng = np.random.default_rng(seed)
        templates = np.stack(
            [_smooth(template_rng.uniform(0.0, 1.0, size=(side, side))) for _ in range(10)]
        )
        templates -= templates.min(axis=(1, 2), keepdims=True)
        templates /= templates.max(axis=(1, 2), keepdims=True)
        labels = rng.integers(0, 10, size=count)
        shifts = rng.integers(-1, 2, size=(count, 2))
        noise = rng.uniform(0.0, 0.25, size=(count, side, side))
        want = np.empty((count, side, side))
        for i, label in enumerate(labels):
            shifted = np.roll(templates[label], tuple(shifts[i]), axis=(0, 1))
            want[i] = 0.75 * shifted + noise[i]
        s = synthetic_digits(count, seed=seed, side=side)
        assert s.images.tobytes() == np.clip(want, 0.0, 1.0).reshape(count, side * side).tobytes()
        np.testing.assert_array_equal(s.labels, labels)
        # The labels stay a fresh stream's first draw, as in the per-image order that
        # drew each image's shifts and noise in turn, so they keep their bytes.
        parent = np.random.default_rng(seed).integers(0, 10, size=count)
        assert s.labels.tobytes() == parent.astype(np.int64).tobytes()

    @pytest.mark.parametrize("generate", [synthetic_blobs, synthetic_digits])
    def test_the_draws_do_not_grow_with_the_count(self, generate, monkeypatch):
        """A fixed number of Generator calls per set, not a few per image."""
        calls = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)
                return counted

        monkeypatch.setattr(np.random, "default_rng", Counting)
        per_count = []
        for count in (10, 1000):
            calls.clear()
            generate(count, seed=3)
            per_count.append(len(calls))
        assert per_count[0] == per_count[1] > 0

    def test_the_rolls_do_not_grow_with_the_count(self, monkeypatch):
        """The templates are blurred and shifted once per set, not per image or group."""
        calls = []
        roll = np.roll

        def counted(*args, **kwargs):
            calls.append(1)
            return roll(*args, **kwargs)

        monkeypatch.setattr(np, "roll", counted)
        per_count = []
        for count in (10, 1000):
            calls.clear()
            synthetic_digits(count, seed=3)
            per_count.append(len(calls))
        assert per_count[0] == per_count[1] > 0

    def test_the_temporaries_stay_within_a_block(self):
        """Peak traced memory is the images plus a fixed allowance, not twice the set."""
        tracemalloc.start()
        try:
            s = synthetic_digits(20000, seed=0, side=14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= s.images.nbytes + 4 * 2**20

    @pytest.mark.parametrize("count, seed", [(0, 0), (1, 1), (25, 2), (500, 7)])
    def test_blobs_match_the_per_image_add(self, count, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=count)
        want = rng.uniform(0.0, 0.25, size=(count, 4, 4))
        for i, label in enumerate(labels):
            block = (slice(0, 2), slice(0, 2)) if label == 0 else (slice(2, 4), slice(2, 4))
            want[i][block] += 0.75
        s = synthetic_blobs(count, seed=seed)
        assert s.images.tobytes() == np.clip(want, 0.0, 1.0).reshape(count, 16).tobytes()
        assert s.labels.tobytes() == labels.astype(np.int64).tobytes()

    def test_different_seeds_share_class_templates(self):
        """Same template seed: class means correlate strongly across draws."""
        a = synthetic_digits(400, seed=0)
        b = synthetic_digits(400, seed=77)
        for cls in (0, 5):
            mean_a = a.images[a.labels == cls].mean(axis=0)
            mean_b = b.images[b.labels == cls].mean(axis=0)
            assert np.corrcoef(mean_a, mean_b)[0, 1] > 0.8

    @pytest.mark.parametrize("generate", [synthetic_blobs, synthetic_digits])
    def test_negative_count_rejected(self, generate):
        with pytest.raises(ConfigError, match="-3"):
            generate(-3, seed=0)

    @pytest.mark.parametrize(
        "generate, argument",
        [(synthetic_blobs, "count"), (synthetic_digits, "count"), (synthetic_digits, "side"),
         (synthetic_digits, "n_classes")],
        ids=["blobs-count", "digits-count", "digits-side", "digits-n_classes"],
    )
    def test_a_non_integer_size_is_refused_by_name(self, generate, argument):
        """Not NumPy's or Python's bare ``TypeError``."""
        kwargs = {"count": 5, argument: 2.5}
        with pytest.raises(ConfigError, match=f"{argument} must be an integer, got 2.5"):
            generate(**kwargs)

    @pytest.mark.parametrize(
        "side, n_classes", [(1, 10), (0, 10), (14, 0)], ids=["side-1", "side-0", "no-classes"]
    )
    def test_a_digit_set_with_no_pixel_range_or_no_class_is_refused(self, side, n_classes):
        """Not NaN pixels from a one-pixel template, and not a bare NumPy error."""
        named = (f"side must be >= 2, got {side}" if side < 2
                 else f"n_classes must be >= 1, got {n_classes}")
        with pytest.raises(ConfigError, match=named):
            synthetic_digits(5, seed=0, side=side, n_classes=n_classes)

    def test_label_histogram(self):
        hist = label_histogram(np.array([0, 2, 2, 1]), n_labels=4)
        assert hist == [1, 1, 2, 0]


def _short_labels(tmp_path):
    path = tmp_path / "short-labels-idx1-ubyte"
    path.write_bytes(idx_label_bytes(np.array([1, 2, 3], dtype=np.uint8))[:-1])
    return load_idx_labels(path)


@pytest.mark.parametrize(
    "call, error, named",
    [
        (_short_labels, IdxParseError, "holds 2 labels, header promises 3"),
        (lambda _: downsample_images(np.zeros((1, 4)), 2, 2, 0), ConfigError, "got 0"),
        (lambda _: take(synthetic_blobs(5), 2.5, 0), ConfigError, "count must be an integer, got 2.5"),
        (lambda _: take(synthetic_blobs(5), True, 0), ConfigError, "count must be an integer, got True"),
        (lambda _: take(synthetic_blobs(5), 3, 1.5), ConfigError, "seed must be an integer, got 1.5"),
        (lambda _: synthetic_digits(3, seed=1.5), ConfigError, "seed must be an integer, got 1.5"),
        (lambda _: synthetic_blobs(3, seed=1.5), ConfigError, "seed must be an integer, got 1.5"),
        (lambda _: downsample_images(np.zeros((1, 196)), 14, 14, 2.0), ConfigError,
         "factor must be an integer, got 2.0"),
        (lambda _: downsample_images(np.zeros((1, 196)), 14, 14, True), ConfigError,
         "factor must be an integer, got True"),
    ],
    ids=["short-label-payload", "factor-below-one", "take-count-real", "take-count-bool",
         "take-seed-real", "digits-seed-real", "blobs-seed-real", "factor-real", "factor-bool"],
)
def test_a_bad_input_is_refused_by_value(tmp_path, call, error, named):
    with pytest.raises(error, match=named):
        call(tmp_path)
