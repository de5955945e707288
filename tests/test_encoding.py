"""Feature-map values, exact endpoints, and range policing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsclassify.encoding import DEFAULT_FEATURE_MAP, FeatureMap, encode_batch
from mpsclassify.errors import DomainError

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def pixel_features(fmap, p):
    """The feature vector of one pixel, as a one-pixel, one-image batch encodes it."""
    return encode_batch(fmap, [[p]])[0, 0]


def image_features(fmap, pixels):
    """The [N, d] features of one flat image, as a one-image batch encodes it."""
    return encode_batch(fmap, np.asarray(pixels)[None])[0]


class TestLinearMap:
    def test_black_is_first_basis_vector(self):
        np.testing.assert_array_equal(pixel_features(FeatureMap.LINEAR, 0.0), [1.0, 0.0])

    def test_white_is_second_basis_vector(self):
        np.testing.assert_array_equal(pixel_features(FeatureMap.LINEAR, 1.0), [0.0, 1.0])

    def test_quarter(self):
        np.testing.assert_array_equal(
            pixel_features(FeatureMap.LINEAR, 0.25), [0.75, 0.25]
        )

    @settings(deadline=None, max_examples=200)
    @given(p=unit_floats)
    def test_components_sum_to_one_exactly(self, p):
        v = pixel_features(FeatureMap.LINEAR, p)
        assert v[0] + v[1] == 1.0

    def test_is_default(self):
        assert DEFAULT_FEATURE_MAP is FeatureMap.LINEAR


class TestTrigMap:
    def test_black_is_first_basis_vector(self):
        np.testing.assert_array_equal(pixel_features(FeatureMap.TRIG, 0.0), [1.0, 0.0])

    def test_white_is_second_basis_vector(self):
        np.testing.assert_array_equal(pixel_features(FeatureMap.TRIG, 1.0), [0.0, 1.0])

    def test_midpoint(self):
        v = pixel_features(FeatureMap.TRIG, 0.5)
        np.testing.assert_allclose(v, [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)

    @settings(deadline=None, max_examples=200)
    @given(p=unit_floats)
    def test_unit_norm(self, p):
        v = pixel_features(FeatureMap.TRIG, p)
        assert abs(v[0] ** 2 + v[1] ** 2 - 1.0) <= 1e-15

    def test_matches_cosine_form(self):
        p = np.linspace(0.0, 1.0, 101)
        feats = image_features(FeatureMap.TRIG, p)
        np.testing.assert_allclose(feats[:, 0], np.cos(0.5 * np.pi * p), atol=1e-15)
        np.testing.assert_allclose(feats[:, 1], np.sin(0.5 * np.pi * p), atol=1e-15)


class TestRangePolicy:
    def test_negative_pixel_rejected(self):
        with pytest.raises(DomainError, match="outside"):
            pixel_features(FeatureMap.LINEAR, -0.001)

    def test_above_one_rejected_not_clamped(self):
        with pytest.raises(DomainError):
            pixel_features(FeatureMap.LINEAR, 1.0 + 1e-9)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            pixel_features(FeatureMap.TRIG, float("nan"))

    def test_error_names_offending_index(self):
        pixels = np.array([0.2, 0.4, 1.7, 0.1])
        with pytest.raises(DomainError, match="index 2"):
            image_features(FeatureMap.LINEAR, pixels)


class TestImageEncoding:
    def test_all_zero_image(self):
        feats = image_features(FeatureMap.LINEAR, np.zeros(5))
        np.testing.assert_array_equal(feats, np.tile([1.0, 0.0], (5, 1)))

    def test_implied_outer_product_is_one_hot(self):
        """Pixels (0, 1) imply a 4-component data tensor hot at index (0, 1)."""
        feats = image_features(FeatureMap.LINEAR, np.array([0.0, 1.0]))
        outer = np.einsum("i,j->ij", feats[0], feats[1])
        np.testing.assert_array_equal(outer, [[0.0, 1.0], [0.0, 0.0]])

    def test_shapes(self, rng):
        pixels = rng.uniform(0, 1, size=784)
        feats = image_features(FeatureMap.LINEAR, pixels)
        assert feats.shape == (784, 2)

    def test_batch_rows_match_single_images(self, rng):
        images = rng.uniform(0, 1, size=(3, 9))
        batch = encode_batch(FeatureMap.TRIG, images)
        assert batch.shape == (3, 9, 2)
        for b in range(3):
            np.testing.assert_array_equal(batch[b], image_features(FeatureMap.TRIG, images[b]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(DomainError):
            encode_batch(FeatureMap.LINEAR, np.zeros((1, 2, 2)))
        with pytest.raises(DomainError):
            encode_batch(FeatureMap.LINEAR, np.zeros(4))


@pytest.mark.parametrize("fmap", list(FeatureMap))
def test_features_equal_the_stacked_formula_bit_for_bit(rng, fmap):
    """One [B, N, d] array written in place holds what stacking the two components gives."""
    p = rng.random((7, 33))
    p[0, :4] = (0.0, 1.0, 0.5, 1e-300)
    if fmap is FeatureMap.LINEAR:
        want = np.stack([1.0 - p, p], axis=-1)
    else:
        want = np.stack([np.sin(0.5 * np.pi * (1.0 - p)), np.sin(0.5 * np.pi * p)], axis=-1)
    got = encode_batch(fmap, p)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
