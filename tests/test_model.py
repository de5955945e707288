"""Model construction, the parameter-count formula, and checkpoint I/O."""

import numpy as np
import pytest

from mpsclassify import (
    CheckpointError,
    ConfigError,
    FeatureMap,
    encode_batch,
    expected_parameter_count,
    forward_batch,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from mpsclassify.errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from mpsclassify.model import CHECKPOINT_MAGIC


class TestInit:
    def test_shapes_n4_chi3(self):
        """N=4, chi=3: boundary [2,3], one bond core, label core at site 2."""
        model = init_model(n_sites=4, n_labels=5, bond_dim=3, seed=0)
        assert model.label_site == 2
        assert model.left_boundary.shape == (2, 3)
        assert model.cores.shape == (1, 2, 3, 3)
        assert model.label_core.shape == (2, 5, 3, 3)
        assert model.right_boundary.shape == (2, 3)

    def test_label_site_is_middle(self):
        assert init_model(10, 2, 2, seed=0).label_site == 5
        assert init_model(9, 2, 2, seed=0).label_site == 4

    def test_same_seed_bit_identical(self):
        a = init_model(8, 3, 4, seed=42)
        b = init_model(8, 3, 4, seed=42)
        for (_, x), (_, y) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(x, y)

    def test_different_seed_differs(self):
        a = init_model(8, 3, 4, seed=1)
        b = init_model(8, 3, 4, seed=2)
        assert not np.array_equal(a.cores, b.cores)

    def test_parameter_count_formula(self):
        for n, l, chi in [(4, 2, 1), (8, 3, 4), (196, 10, 10), (784, 10, 16)]:
            model = init_model(n, l, chi, seed=0)
            assert model.parameter_count() == expected_parameter_count(n, l, chi)

    def test_zero_sigma_logits_are_label_independent(self, rng):
        """Identity chain: the score collapses to the same scalar per label."""
        model = init_model(n_sites=9, n_labels=4, bond_dim=3, seed=0, sigma=0.0)
        for _ in range(5):
            feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(1, 9)))
            logits = forward_batch(model, feats)[0]
            np.testing.assert_allclose(logits, logits[0], rtol=1e-12)

    def test_near_identity_keeps_long_chains_at_order_one(self, rng):
        model = init_model(n_sites=196, n_labels=10, bond_dim=10, seed=3)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(1, 196)))
        logits = forward_batch(model, feats)
        assert np.all(np.abs(logits) < 1e3)
        assert np.all(np.abs(logits) > 1e-3)

    def test_custom_label_site(self):
        model = init_model(10, 2, 2, seed=0, label_site=3)
        assert model.label_site == 3
        assert model.core_stack_index(2) == 1
        assert model.core_stack_index(4) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sites=2, n_labels=2, bond_dim=2),
            dict(n_sites=8, n_labels=1, bond_dim=2),
            dict(n_sites=8, n_labels=2, bond_dim=0),
            dict(n_sites=8, n_labels=2, bond_dim=2, label_site=0),
            dict(n_sites=8, n_labels=2, bond_dim=2, label_site=7),
            dict(n_sites=8, n_labels=2, bond_dim=2, sigma=-1.0),
        ],
    )
    def test_invalid_configurations(self, kwargs):
        with pytest.raises(ConfigError):
            init_model(seed=0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            (dict(n_sites=10, label_site=2.5), "label_site must be an integer"),
            (dict(n_sites=10, label_site=True), "label_site must be an integer"),
            (dict(n_sites=10.0), "n_sites must be an integer"),
            (dict(n_sites=10, n_labels=3.0), "n_labels must be an integer"),
            (dict(n_sites=10, bond_dim=2.5), "bond_dim must be an integer"),
            (dict(n_sites=10, sigma=float("nan")), "sigma must be"),
            (dict(n_sites=10, sigma=float("inf")), "sigma must be"),
        ],
        ids=["float-label-site", "bool-label-site", "float-sites", "float-labels",
             "float-bond-dim", "nan-sigma", "inf-sigma"],
    )
    def test_sizes_are_checked_up_front(self, kwargs, named):
        """Named at construction, not as NumPy's bare TypeError at the first
        forward pass or as silently non-finite weights."""
        kwargs = dict(dict(n_labels=3, bond_dim=2, seed=0), **kwargs)
        with pytest.raises(ConfigError, match=named):
            init_model(**kwargs)

    def test_core_stack_index_rejects_label_and_boundary_sites(self):
        model = init_model(8, 2, 2, seed=0)
        for bad in (0, model.label_site, 7):
            with pytest.raises(ConfigError):
                model.core_stack_index(bad)

    def test_copy_is_independent(self):
        model = init_model(6, 2, 2, seed=0)
        dup = model.copy()
        dup.cores[0] += 1.0
        assert not np.array_equal(dup.cores, model.cores)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(12, 3, 5, seed=9, feature_map=FeatureMap.TRIG)
        path = tmp_path / "model.mps"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.n_sites == 12
        assert loaded.n_labels == 3
        assert loaded.bond_dim == 5
        assert loaded.label_site == model.label_site
        assert loaded.feature_map is FeatureMap.TRIG
        for (_, x), (_, y) in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(x, y)

    def test_summary_reports_loaded_bond_dim(self, tmp_path):
        path = tmp_path / "chi8.mps"
        save_checkpoint(init_model(10, 2, 8, seed=0), path)
        assert "chi=8" in load_checkpoint(path).summary()

    def test_corrupt_magic(self, tmp_path):
        model = init_model(6, 2, 2, seed=0)
        path = tmp_path / "bad.mps"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        model = init_model(6, 2, 2, seed=0)
        path = tmp_path / "vers.mps"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="99"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = init_model(6, 2, 2, seed=0)
        path = tmp_path / "trunc.mps"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointTruncatedError, match="bytes"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "header.mps"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01\x00")
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, offset, value",
        [
            ("n_sites", 12, 2),
            ("n_labels", 16, 1),
            ("local_dim", 20, 3),
            ("bond_dim", 24, 0),
            ("label_site", 28, 0),
            ("label_site", 28, 7),
            ("label_site", 28, 9),
        ],
    )
    def test_impossible_header_field_is_named(self, tmp_path, field, offset, value):
        """A header no model allows is refused at load, even when the payload size fits."""
        path = tmp_path / "header.mps"
        save_checkpoint(init_model(8, 2, 2, seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match=field):
            load_checkpoint(path)

    def test_checkpoint_errors_share_base(self):
        assert issubclass(CheckpointFormatError, CheckpointError)
        assert issubclass(CheckpointVersionError, CheckpointError)
        assert issubclass(CheckpointTruncatedError, CheckpointError)

    def test_loaded_model_forward_matches_saved(self, tmp_path, rng):
        model = init_model(10, 3, 4, seed=5)
        path = tmp_path / "fwd.mps"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(1, 10)))
        np.testing.assert_array_equal(forward_batch(model, feats), forward_batch(loaded, feats))


@pytest.mark.parametrize("code", [2, 99])
def test_an_unknown_feature_map_code_is_refused_by_value(tmp_path, code):
    """The header's last field, after the magic and six others."""
    path = tmp_path / "fmap.mps"
    save_checkpoint(init_model(8, 2, 2, seed=0), path)
    blob = bytearray(path.read_bytes())
    blob[32:36] = code.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match=f"feature map code {code}"):
        load_checkpoint(path)
