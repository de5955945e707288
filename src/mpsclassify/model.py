"""Trainable matrix-product-state classifier and its checkpoint format.

Chain layout over N sites (pixels), one site per pixel in row-major order:

    site 0            left boundary   [d, chi]
    sites 1 .. N-2    bond cores      [d, chi, chi]   (stacked, label site excluded)
    site m            label core      [d, L, chi, chi]
    site N-1          right boundary  [d, chi]

The label site m defaults to floor(N / 2). Bond cores are stored stacked as
a single [N-3, d, chi, chi] array ordered by ascending site index.
"""

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import FeatureMap
from .errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    check_integer,
    check_real,
)
from .tensor import DTYPE

CHECKPOINT_MAGIC = b"MPSCHKPT"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<7I")  # version, N, L, d, chi, label_site, feature map
_FEATURE_MAP_CODES = {FeatureMap.LINEAR: 0, FeatureMap.TRIG: 1}
_FEATURE_MAP_FROM_CODE = {v: k for k, v in _FEATURE_MAP_CODES.items()}

DEFAULT_INIT_STD = 1e-2
LOCAL_DIM = 2  # both feature maps give two components per pixel


@dataclass
class MpsClassifier:
    n_sites: int
    n_labels: int
    local_dim: int
    bond_dim: int
    label_site: int
    feature_map: FeatureMap
    left_boundary: np.ndarray = field(repr=False)   # [d, chi]
    cores: np.ndarray = field(repr=False)           # [N-3, d, chi, chi]
    label_core: np.ndarray = field(repr=False)      # [d, L, chi, chi]
    right_boundary: np.ndarray = field(repr=False)  # [d, chi]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named weight arrays in declared (checkpoint) order."""
        return [
            ("left_boundary", self.left_boundary),
            ("cores", self.cores),
            ("label_core", self.label_core),
            ("right_boundary", self.right_boundary),
        ]

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.parameters())

    def core_stack_index(self, site: int) -> int:
        """Index into ``cores`` for a bond-core site (1..N-2, not the label site)."""
        if not 1 <= site <= self.n_sites - 2 or site == self.label_site:
            raise ConfigError(f"site {site} is not a bond-core site")
        return site - 1 if site < self.label_site else site - 2

    def copy(self) -> "MpsClassifier":
        return replace(self, **{name: arr.copy() for name, arr in self.parameters()})

    def summary(self) -> str:
        return (
            f"MpsClassifier(N={self.n_sites}, L={self.n_labels}, d={self.local_dim}, "
            f"chi={self.bond_dim}, label_site={self.label_site}, "
            f"feature_map={self.feature_map.value}, params={self.parameter_count()})"
        )


def _check_layout(n_sites: int, n_labels: int, bond_dim: int, label_site: int) -> None:
    """Raise ConfigError naming the first field that no chain layout allows."""
    sizes = dict(n_sites=n_sites, n_labels=n_labels, bond_dim=bond_dim, label_site=label_site)
    for name, value in sizes.items():
        check_integer(name, value)
    if n_sites < 3:
        raise ConfigError(
            f"n_sites must be >= 3 so the label core sits strictly between "
            f"the boundary sites, got {n_sites}"
        )
    if n_labels < 2:
        raise ConfigError(f"n_labels must be >= 2, got {n_labels}")
    if bond_dim < 1:
        raise ConfigError(f"bond_dim must be >= 1, got {bond_dim}")
    if not 1 <= label_site <= n_sites - 2:
        raise ConfigError(f"label_site must lie in [1, {n_sites - 2}], got {label_site}")


def init_model(
    n_sites: int,
    n_labels: int,
    bond_dim: int,
    seed: int,
    sigma: float = DEFAULT_INIT_STD,
    label_site: int | None = None,
    feature_map: FeatureMap = FeatureMap.LINEAR,
) -> MpsClassifier:
    """Build a classifier initialized near the identity chain.

    Every bond matrix slice is the chi x chi identity plus i.i.d. Gaussian
    noise of standard deviation ``sigma``; boundary vectors are the first
    identity row/column plus noise. Under the linear feature map, whose
    components sum to one, near-identity products keep the first forward
    pass of long chains at order one. The trig map's components sum to
    between 1 and sqrt 2 per site, so its logits grow with N: at N=196 the
    largest |logit| per synthetic digit is 1e25 to 3e27. Deterministic
    given ``seed``.
    """
    check_integer("n_sites", n_sites)
    check_integer("seed", seed)
    m = n_sites // 2 if label_site is None else label_site
    _check_layout(n_sites, n_labels, bond_dim, m)
    check_real("sigma", sigma, allow_zero=True)

    d, chi, big_l = LOCAL_DIM, bond_dim, n_labels
    rng = np.random.default_rng(seed)
    e1 = np.zeros(chi, dtype=DTYPE)
    e1[0] = 1.0
    eye = np.eye(chi, dtype=DTYPE)

    left = e1 + sigma * rng.standard_normal((d, chi))
    n_bond = n_sites - 3
    cores = eye + sigma * rng.standard_normal((n_bond, d, chi, chi))
    label = eye + sigma * rng.standard_normal((d, big_l, chi, chi))
    right = e1 + sigma * rng.standard_normal((d, chi))

    return MpsClassifier(
        n_sites=n_sites,
        n_labels=big_l,
        local_dim=d,
        bond_dim=chi,
        label_site=m,
        feature_map=feature_map,
        left_boundary=np.ascontiguousarray(left, dtype=DTYPE),
        cores=np.ascontiguousarray(cores, dtype=DTYPE),
        label_core=np.ascontiguousarray(label, dtype=DTYPE),
        right_boundary=np.ascontiguousarray(right, dtype=DTYPE),
    )


def expected_parameter_count(n_sites: int, n_labels: int, bond_dim: int) -> int:
    """Closed-form weight count for the chain layout above."""
    d, chi = LOCAL_DIM, bond_dim
    return d * chi * 2 + (n_sites - 2) * d * chi * chi + d * chi * chi * (n_labels - 1)


def save_checkpoint(model: MpsClassifier, path) -> None:
    """Write model weights to ``path``; round-trips bit-exactly via load."""
    header = _HEADER.pack(
        CHECKPOINT_VERSION,
        model.n_sites,
        model.n_labels,
        model.local_dim,
        model.bond_dim,
        model.label_site,
        _FEATURE_MAP_CODES[model.feature_map],
    )
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(header)
        for _, arr in model.parameters():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> MpsClassifier:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises CheckpointFormatError on bad magic or a header field that no
    model allows, CheckpointVersionError on an unsupported version,
    CheckpointTruncatedError when the payload length disagrees with the
    header.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"bad checkpoint magic {blob[:len(CHECKPOINT_MAGIC)]!r} in {path}"
        )
    off = len(CHECKPOINT_MAGIC)
    if len(blob) < off + _HEADER.size:
        raise CheckpointTruncatedError(f"checkpoint header truncated in {path}")
    version, n_sites, n_labels, d, chi, label_site, fmap_code = _HEADER.unpack_from(blob, off)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    if fmap_code not in _FEATURE_MAP_FROM_CODE:
        raise CheckpointFormatError(f"unknown feature map code {fmap_code}")
    if d != LOCAL_DIM:
        raise CheckpointFormatError(f"checkpoint local_dim must be {LOCAL_DIM}, got {d}")
    try:
        _check_layout(n_sites, n_labels, chi, label_site)
    except ConfigError as exc:
        raise CheckpointFormatError(f"impossible checkpoint header in {path}: {exc}") from None
    off += _HEADER.size

    shapes = [
        (d, chi),
        (n_sites - 3, d, chi, chi),
        (d, n_labels, chi, chi),
        (d, chi),
    ]
    expected = sum(int(np.prod(s)) for s in shapes) * 8
    payload = blob[off:]
    if len(payload) != expected:
        raise CheckpointTruncatedError(
            f"checkpoint payload is {len(payload)} bytes, header implies {expected}"
        )

    arrays = []
    pos = 0
    for shape in shapes:
        n = int(np.prod(shape))
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=pos * 8)
        arrays.append(arr.astype(DTYPE).reshape(shape))
        pos += n
    left, cores, label, right = arrays
    return MpsClassifier(
        n_sites=n_sites,
        n_labels=n_labels,
        local_dim=d,
        bond_dim=chi,
        label_site=label_site,
        feature_map=_FEATURE_MAP_FROM_CODE[fmap_code],
        left_boundary=left,
        cores=cores,
        label_core=label,
        right_boundary=right,
    )
