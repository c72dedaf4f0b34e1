"""Synthetic class-disjoint datasets and their on-disk format.

Classes are isotropic Gaussian clusters whose means sit uniformly on a
sphere of radius `separation`; `spread` is the per-coordinate noise std.
The default benchmark (40 classes x 60 examples, dim 32, split 24/8/8) is a
shrunken stand-in for the usual 100-class few-shot image benchmarks.

On disk a dataset is a JSON manifest next to a raw payload: 16-byte header
(magic, version, dim, count) followed by float64 little-endian rows ordered
by class id. The manifest stores a SHA-256 checksum of the payload, so the
round trip is bit-exact and corruption is detected on load.
"""

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .episodes import MetaSplit, RowTable

PAYLOAD_MAGIC = b"FSDS"
PAYLOAD_VERSION = 1


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 40
    examples_per_class: int = 60
    dim: int = 32
    separation: float = 8.0
    spread: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 4:
            raise DatasetError(
                f"need >= 4 classes for a 3-way split plus unknowns, got {self.num_classes}"
            )
        if self.examples_per_class < 1 or self.dim < 1:
            raise DatasetError("examples_per_class and dim must be >= 1")
        if not (math.isfinite(self.separation) and self.separation >= 0):
            raise DatasetError(f"separation must be finite and >= 0, got {self.separation}")
        if not (math.isfinite(self.spread) and self.spread > 0):
            raise DatasetError(f"spread must be finite and > 0, got {self.spread}")


class Dataset:
    """In-memory dataset: per-class example matrices of finite values plus
    the meta-split."""

    def __init__(self, name, class_examples, split, input_shape=None, meta=None):
        self.name = name
        self.class_examples = {int(c): np.asarray(v, dtype=np.float64) for c, v in class_examples.items()}
        if not self.class_examples:
            raise DatasetError("dataset has no classes")
        dims = {v.shape[1] for v in self.class_examples.values()}
        if len(dims) != 1:
            raise DatasetError(f"inconsistent example dims {sorted(dims)}")
        self.dim = dims.pop()
        for c, v in self.class_examples.items():
            if not np.isfinite(v).all():
                raise DatasetError(f"class {c} holds non-finite values")
        self.input_shape = tuple(input_shape) if input_shape else (self.dim,)
        if int(np.prod(self.input_shape)) != self.dim:
            raise DatasetError(
                f"input shape {self.input_shape} does not flatten to dim {self.dim}"
            )
        self.split = split
        self.meta = dict(meta or {})
        self._row_tables = {}
        covered = set(split.meta_train) | set(split.meta_val) | set(split.meta_test)
        ids = set(self.class_examples)
        if covered != ids:
            raise DatasetError(
                f"split does not partition the class ids (missing {sorted(ids - covered)}, "
                f"extra {sorted(covered - ids)})"
            )

    @property
    def input_kind(self):
        return "vector" if len(self.input_shape) == 1 else "image"

    def classes(self):
        return sorted(self.class_examples)

    def examples(self, class_id):
        try:
            return self.class_examples[int(class_id)]
        except KeyError:
            raise DatasetError(f"unknown class id {class_id}")

    def row_table(self, classes):
        """The examples of the given classes as one RowTable, built on first
        use and shared by every episode drawn from those classes."""
        key = tuple(sorted(int(c) for c in classes))
        if key not in self._row_tables:
            self._row_tables[key] = RowTable.stack(
                key, [self.examples(c) for c in key], self.dim
            )
        return self._row_tables[key]


def default_split_counts(num_classes):
    """~60/15/25 split with every partition non-empty (24/6/10 for the
    default 40 classes; the test partition must hold n + n_U = 10 classes
    for the 5-way, 5-unknown evaluation protocol)."""
    n_train = max(1, round(0.6 * num_classes))
    n_test = max(1, round(0.25 * num_classes))
    n_val = num_classes - n_train - n_test
    if n_val < 1:
        n_train -= 1 - n_val
        n_val = 1
    return n_train, n_val, n_test


def generate_synthetic(spec, split_counts=None, name="synthetic", input_shape=None):
    """Deterministic synthetic dataset for the given spec.

    Class means are separation * (unit Gaussian direction); examples add
    isotropic Gaussian noise of std spread. Classes are assigned to the
    meta-split in id order: first the train block, then val, then test.
    """
    rng = np.random.default_rng(spec.seed)
    raw = rng.normal(size=(spec.num_classes, spec.dim))
    if spec.separation > 0:
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        means = raw / norms * spec.separation
    else:
        means = np.zeros_like(raw)
    class_examples = {}
    for cid in range(spec.num_classes):
        noise = rng.normal(0.0, spec.spread, size=(spec.examples_per_class, spec.dim))
        class_examples[cid] = means[cid] + noise
    counts = split_counts or default_split_counts(spec.num_classes)
    if len(counts) != 3 or sum(counts) != spec.num_classes or any(c < 1 for c in counts):
        raise DatasetError(
            f"split counts {counts} must be three positive train/val/test counts "
            f"summing to {spec.num_classes}"
        )
    ids = list(range(spec.num_classes))
    split = MetaSplit(
        tuple(ids[: counts[0]]),
        tuple(ids[counts[0] : counts[0] + counts[1]]),
        tuple(ids[counts[0] + counts[1] :]),
    )
    return Dataset(name, class_examples, split, input_shape=input_shape, meta=asdict(spec))


def _payload_path(manifest_path):
    return Path(manifest_path).with_suffix(".bin")


def save_dataset(dataset, manifest_path):
    """Write manifest JSON + raw payload; returns the payload checksum."""
    manifest_path = Path(manifest_path)
    payload_path = _payload_path(manifest_path)
    ids = dataset.classes()
    rows = np.vstack([dataset.class_examples[c] for c in ids])
    header = struct.pack(
        "<4sIII", PAYLOAD_MAGIC, PAYLOAD_VERSION, dataset.dim, rows.shape[0]
    )
    values = rows.astype("<f8", copy=False)  # vstack made it C-contiguous
    with open(payload_path, "wb") as fh:
        fh.writelines((header, values))
    digest = hashlib.sha256(header)
    digest.update(values)
    checksum = digest.hexdigest()
    manifest = {
        "format_version": 1,
        "name": dataset.name,
        "input_kind": dataset.input_kind,
        "input_shape": list(dataset.input_shape),
        "dim": dataset.dim,
        "payload": payload_path.name,
        "checksum": checksum,
        "classes": [{"id": c, "count": int(dataset.class_examples[c].shape[0])} for c in ids],
        "split": {
            "meta_train": list(dataset.split.meta_train),
            "meta_val": list(dataset.split.meta_val),
            "meta_test": list(dataset.split.meta_test),
        },
        "meta": dataset.meta,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return checksum


# what load_dataset reads from a manifest: a type, [item type] or {key: type}
_MANIFEST = {
    "name": str, "payload": str, "checksum": str, "dim": int, "input_shape": [int],
    "classes": [{"id": int, "count": int}],
    "split": {"meta_train": [int], "meta_val": [int], "meta_test": [int]},
}


def _fits(value, form):
    if isinstance(form, list):
        return isinstance(value, list) and all(_fits(v, form[0]) for v in value)
    if isinstance(form, dict):
        return isinstance(value, dict) and all(_fits(value.get(k), f) for k, f in form.items())
    return type(value) is form


def _check_manifest(manifest):
    if not isinstance(manifest, dict):
        raise DatasetError("manifest must be a JSON object")
    for key, form in _MANIFEST.items():
        if key not in manifest:
            raise DatasetError(f"manifest is missing {key!r}")
        if not _fits(manifest[key], form):
            raise DatasetError(f"manifest has a malformed {key!r}")
    if not isinstance(manifest.get("meta", {}), dict):
        raise DatasetError("manifest has a malformed 'meta'")


def load_dataset(manifest_path):
    """Load and validate: manifest keys, checksum, payload header, counts,
    finite values, split partition."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise DatasetError(f"manifest not found: {manifest_path}")
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest is not valid JSON: {exc}")
    _check_manifest(manifest)
    payload_path = manifest_path.parent / manifest["payload"]
    try:
        payload = bytearray(payload_path.stat().st_size)  # the rows view it in place
        with open(payload_path, "rb") as fh:
            del payload[fh.readinto(payload):]
    except FileNotFoundError:
        raise DatasetError(f"payload not found: {payload_path}")
    checksum = hashlib.sha256(payload).hexdigest()
    if checksum != manifest["checksum"]:
        raise DatasetError(
            f"payload checksum mismatch: manifest {manifest['checksum'][:12]}..., "
            f"payload {checksum[:12]}..."
        )
    if len(payload) < 16:
        raise DatasetError("payload too short for its header")
    magic, version, dim, count = struct.unpack("<4sIII", payload[:16])
    if magic != PAYLOAD_MAGIC:
        raise DatasetError("payload magic mismatch")
    if version != PAYLOAD_VERSION:
        raise DatasetError(f"unsupported payload version {version}")
    if dim != manifest["dim"]:
        raise DatasetError(f"dim mismatch: header {dim}, manifest {manifest['dim']}")
    expected = 16 + count * dim * 8
    if len(payload) != expected:
        raise DatasetError(f"payload length {len(payload)} != expected {expected}")
    # a view on little-endian machines, a native copy on big-endian ones
    rows = np.frombuffer(payload, "<f8", offset=16).astype(float, copy=False).reshape(count, dim)
    class_examples = {}
    offset = 0
    for entry in manifest["classes"]:
        c, n = entry["id"], entry["count"]
        class_examples[c] = rows[offset : offset + n]
        offset += n
    if offset != count:
        raise DatasetError(f"class counts sum to {offset}, payload holds {count} rows")
    split = MetaSplit(
        tuple(manifest["split"]["meta_train"]),
        tuple(manifest["split"]["meta_val"]),
        tuple(manifest["split"]["meta_test"]),
    )
    return Dataset(
        manifest["name"],
        class_examples,
        split,
        input_shape=tuple(manifest["input_shape"]),
        meta=manifest.get("meta", {}),
    )
