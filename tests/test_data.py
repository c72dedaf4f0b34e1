import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from fsos.data import (
    Dataset,
    DatasetError,
    SyntheticSpec,
    default_split_counts,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from fsos.episodes import MetaSplit, SplitError


def test_spec_validation():
    with pytest.raises(DatasetError):
        SyntheticSpec(num_classes=3)
    with pytest.raises(DatasetError):
        SyntheticSpec(separation=-1.0)
    with pytest.raises(DatasetError):
        SyntheticSpec(spread=0.0)


def test_default_split_counts():
    assert default_split_counts(40) == (24, 6, 10)
    for c in range(4, 60):
        tr, va, te = default_split_counts(c)
        assert tr + va + te == c
        assert min(tr, va, te) >= 1


@pytest.mark.parametrize("counts", [(10, 10, 10, 10), (24, 16), (40,)])
def test_split_counts_other_than_three_are_refused(counts):
    spec = SyntheticSpec(num_classes=40, examples_per_class=4, dim=4, seed=1)
    with pytest.raises(DatasetError, match="three positive"):
        generate_synthetic(spec, split_counts=counts)


def test_generation_deterministic():
    spec = SyntheticSpec(num_classes=6, examples_per_class=10, dim=8, seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for c in a.classes():
        assert np.array_equal(a.examples(c), b.examples(c))


def test_zero_separation_collapses_means():
    spec = SyntheticSpec(num_classes=5, examples_per_class=200, dim=6,
                         separation=0.0, spread=1.0, seed=1)
    ds = generate_synthetic(spec)
    for c in ds.classes():
        assert np.linalg.norm(ds.examples(c).mean(axis=0)) < 0.5


def test_means_sit_on_separation_sphere():
    spec = SyntheticSpec(num_classes=6, examples_per_class=4000, dim=8,
                         separation=8.0, spread=0.05, seed=2)
    ds = generate_synthetic(spec)
    for c in ds.classes():
        assert abs(np.linalg.norm(ds.examples(c).mean(axis=0)) - 8.0) < 0.05


def test_per_class_mean_convergence():
    # rms per-coordinate deviation of the empirical class mean stays within
    # 3 * spread / sqrt(examples_per_class) for at least 95% of classes
    spec = SyntheticSpec(num_classes=40, examples_per_class=60, dim=32,
                         separation=8.0, spread=1.0, seed=7)
    ds = generate_synthetic(spec)
    rng = np.random.default_rng(spec.seed)
    raw = rng.normal(size=(spec.num_classes, spec.dim))
    means = raw / np.linalg.norm(raw, axis=1, keepdims=True) * spec.separation
    bound = 3.0 * spec.spread / np.sqrt(spec.examples_per_class)
    ok = 0
    for c in ds.classes():
        err = ds.examples(c).mean(axis=0) - means[c]
        if np.sqrt(np.mean(err**2)) <= bound:
            ok += 1
    assert ok >= 0.95 * spec.num_classes


def test_round_trip_bit_exact(tmp_path):
    spec = SyntheticSpec(num_classes=6, examples_per_class=8, dim=5, seed=3)
    ds = generate_synthetic(spec)
    manifest = tmp_path / "ds.json"
    checksum1 = save_dataset(ds, manifest)
    back = load_dataset(manifest)
    for c in ds.classes():
        assert np.array_equal(ds.examples(c), back.examples(c))
    assert back.split == ds.split
    # saving the loaded dataset reproduces identical bytes
    manifest2 = tmp_path / "ds2.json"
    checksum2 = save_dataset(back, manifest2)
    assert checksum1 == checksum2
    assert (tmp_path / "ds.bin").read_bytes() == (tmp_path / "ds2.bin").read_bytes()


def test_save_and_load_hold_the_payload_once(tmp_path):
    # the payload is read into one buffer that the rows view, and written
    # and hashed as header and rows, with no joined copy
    ds = generate_synthetic(SyntheticSpec(num_classes=10, examples_per_class=50, dim=256, seed=3))
    payload = 10 * 50 * 256 * 8
    for step in (lambda: save_dataset(ds, tmp_path / "ds.json"),
                 lambda: load_dataset(tmp_path / "ds.json")):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload


def test_checksum_detects_corruption(tmp_path):
    ds = generate_synthetic(SyntheticSpec(num_classes=5, examples_per_class=6, dim=4, seed=4))
    manifest = tmp_path / "ds.json"
    save_dataset(ds, manifest)
    payload = tmp_path / "ds.bin"
    raw = bytearray(payload.read_bytes())
    raw[50] ^= 0x01
    payload.write_bytes(bytes(raw))
    with pytest.raises(DatasetError) as exc:
        load_dataset(manifest)
    assert "checksum" in str(exc.value)


def test_non_finite_payload_rejected(tmp_path):
    ds = generate_synthetic(SyntheticSpec(num_classes=5, examples_per_class=6, dim=4, seed=4))
    manifest = tmp_path / "ds.json"
    save_dataset(ds, manifest)
    payload = tmp_path / "ds.bin"
    raw = bytearray(payload.read_bytes())
    raw[16 + 8 * 24 : 16 + 8 * 25] = struct.pack("<d", float("nan"))  # class 1, first value
    payload.write_bytes(bytes(raw))
    doc = json.loads(manifest.read_text())
    doc["checksum"] = hashlib.sha256(bytes(raw)).hexdigest()
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="class 1 holds non-finite values"):
        load_dataset(manifest)


def test_overlapping_split_rejected(tmp_path):
    ds = generate_synthetic(SyntheticSpec(num_classes=5, examples_per_class=6, dim=4, seed=5))
    manifest = tmp_path / "ds.json"
    save_dataset(ds, manifest)
    doc = json.loads(manifest.read_text())
    doc["split"]["meta_val"] = doc["split"]["meta_train"][:1]
    manifest.write_text(json.dumps(doc))
    with pytest.raises((DatasetError, SplitError)):
        load_dataset(manifest)


def test_split_must_partition_class_ids():
    with pytest.raises(DatasetError):
        Dataset(
            "x",
            {0: np.zeros((2, 3)), 1: np.zeros((2, 3)), 2: np.zeros((2, 3)), 3: np.zeros((2, 3))},
            MetaSplit((0,), (1,), (2,)),  # class 3 unassigned
        )


def test_missing_manifest_and_payload(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "nope.json")
    ds = generate_synthetic(SyntheticSpec(num_classes=5, examples_per_class=6, dim=4, seed=6))
    manifest = tmp_path / "ds.json"
    save_dataset(ds, manifest)
    (tmp_path / "ds.bin").unlink()
    with pytest.raises(DatasetError):
        load_dataset(manifest)


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.pop("name"), "missing 'name'"),
    (lambda doc: doc.pop("input_shape"), "missing 'input_shape'"),
    (lambda doc: doc.update(dim="4"), "malformed 'dim'"),
    (lambda doc: doc.update(payload=None), "malformed 'payload'"),
    (lambda doc: doc["classes"][0].update(id="0"), "malformed 'classes'"),
    (lambda doc: doc["classes"][0].pop("count"), "malformed 'classes'"),
    (lambda doc: doc["split"].pop("meta_test"), "malformed 'split'"),
    (lambda doc: doc["split"].update(meta_val=[1.5]), "malformed 'split'"),
    (lambda doc: doc.update(meta=[]), "malformed 'meta'"),
], ids=["no_name", "no_input_shape", "string_dim", "null_payload", "string_class_id",
        "class_without_count", "split_without_test", "float_class_in_split", "list_meta"])
def test_malformed_manifest_rejected(tmp_path, edit, reason):
    ds = generate_synthetic(SyntheticSpec(num_classes=5, examples_per_class=6, dim=4, seed=7))
    manifest = tmp_path / "ds.json"
    save_dataset(ds, manifest)
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=reason):
        load_dataset(manifest)
    manifest.write_text(json.dumps([doc]))
    with pytest.raises(DatasetError, match="JSON object"):
        load_dataset(manifest)
