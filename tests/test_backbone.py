import numpy as np
import pytest

from fsos.autodiff import Tensor, gradient_check
from fsos.backbone import (
    DEFAULT_IMAGE_SPEC,
    BackboneSpec,
    SpecError,
    embed,
    embed_branch,
    from_param_groups,
    init_backbone,
    to_param_groups,
)
from fsos.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def test_spec_requires_two_blocks():
    with pytest.raises(SpecError):
        BackboneSpec("vector", (8,), (("dense", 16),))


def test_spec_embed_dim():
    spec = BackboneSpec("vector", (8,), (("dense", 16), ("dense", 24)))
    assert spec.embed_dim == 24
    assert DEFAULT_IMAGE_SPEC.embed_dim == 32 * 4 * 4


def test_spec_rejects_mixed_blocks_and_odd_images():
    with pytest.raises(SpecError):
        BackboneSpec("vector", (8,), (("conv", 16), ("dense", 8)))
    with pytest.raises(SpecError):
        BackboneSpec("image", (1, 6, 6), (("conv", 4), ("conv", 4)))  # 3x3 cannot pool


def test_init_deterministic_and_branch_copies_head(small_spec):
    a = init_backbone(small_spec, seed=3)
    b = init_backbone(small_spec, seed=3)
    for ga, gb in zip(a.named_groups(), b.named_groups()):
        for (_, ta), (_, tb) in zip(ga[1], gb[1]):
            assert np.array_equal(ta.data, tb.data)
    for (_, th), (_, tb) in zip(sorted(a.head.items()), sorted(a.branch.items())):
        assert np.array_equal(th.data, tb.data)


def test_branch_equals_main_embedding_at_init(small_spec):
    params = init_backbone(small_spec, seed=9)
    x = np.random.default_rng(0).normal(size=(7, 16))
    assert np.array_equal(embed(params, x).data, embed_branch(params, x).data)


def test_trunk_shared_branch_independent(small_spec):
    params = init_backbone(small_spec, seed=9)
    x = np.random.default_rng(1).normal(size=(5, 16))
    base_main = embed(params, x).data.copy()
    base_branch = embed_branch(params, x).data.copy()
    # branch perturbation moves only the branch output
    params.branch["W"].data += 0.1
    assert np.array_equal(embed(params, x).data, base_main)
    assert not np.array_equal(embed_branch(params, x).data, base_branch)
    # trunk perturbation moves both
    params.trunk[0]["W"].data += 0.1
    assert not np.array_equal(embed(params, x).data, base_main)


def test_embedding_dims_and_determinism(small_spec):
    params = init_backbone(small_spec, seed=2, with_projection=True)
    x = np.random.default_rng(2).normal(size=(1, 16))
    for space in ("main", "branch", "projected"):
        out = embed(params, x, space)
        assert out.data.shape == (1, small_spec.embed_dim)
        assert np.array_equal(out.data, embed(params, x, space).data)
        with pytest.raises(SpecError):
            embed(params, x[0], space)  # a single unstacked row is not accepted


def test_projection_identity_at_init_and_missing_error(small_spec):
    params = init_backbone(small_spec, seed=2, with_projection=True)
    x = np.random.default_rng(3).normal(size=(4, 16))
    assert np.array_equal(embed(params, x, "projected").data, embed(params, x).data)
    bare = init_backbone(small_spec, seed=2)
    with pytest.raises(SpecError):
        embed(bare, x, "projected")


def test_projection_gradient_check(small_spec):
    params = init_backbone(small_spec, seed=4, with_projection=True)
    x = np.random.default_rng(4).normal(size=(3, 16))
    target = np.random.default_rng(5).normal(size=(3, small_spec.embed_dim))

    def build(ps):
        params.projection["W"], params.projection["b"] = ps[0], ps[1]
        emb = embed(params, x, "projected")
        from fsos.autodiff import bce

        return bce(emb, Tensor((target > 0).astype(float)))

    point = [params.projection["W"].data.copy(), params.projection["b"].data.copy()]
    report = gradient_check(build, point, tolerance=1e-4)
    assert report.passed, report.errors


def test_image_backbone_forward_shapes():
    params = init_backbone(DEFAULT_IMAGE_SPEC, seed=6)
    rng = np.random.default_rng(6)
    flat = embed(params, rng.normal(size=(1, 256)))
    batch = embed(params, rng.normal(size=(3, 256)))
    assert flat.data.shape == (1, 512)
    assert batch.data.shape == (3, 512)
    # only flat rows are accepted: images and unstacked rows are refused
    for shape in ((1, 16, 16), (3, 1, 16, 16), (256,)):
        with pytest.raises(SpecError):
            embed(params, rng.normal(size=shape))


def test_zero_input_affine_zero_bias_gives_zero(small_spec):
    params = init_backbone(small_spec, seed=7)
    for block in params.trunk + [params.head]:
        block["b"].data[:] = 0.0
    out = embed(params, np.zeros((1, 16)))
    assert np.array_equal(out.data, np.zeros((1, small_spec.embed_dim)))


def test_input_shape_mismatch_errors(small_spec):
    params = init_backbone(small_spec, seed=8)
    with pytest.raises(SpecError):
        embed(params, np.zeros(9))


# ---------------------------------------------------------------------------
# checkpoint round trip


def test_checkpoint_byte_exact_round_trip(tmp_path, small_spec):
    params = init_backbone(small_spec, seed=10, with_projection=True)
    header = {"backbone_spec": small_spec.to_dict(), "meta": {"note": "roundtrip"}}
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, header, to_param_groups(params))
    loaded_header, groups = load_checkpoint(p1)
    assert loaded_header == header
    save_checkpoint(p2, loaded_header, groups)
    assert p1.read_bytes() == p2.read_bytes()
    rebuilt = from_param_groups(small_spec, groups)
    x = np.random.default_rng(11).normal(size=(4, 16))
    assert np.array_equal(embed(params, x).data, embed(rebuilt, x).data)
    assert np.array_equal(embed_branch(params, x).data, embed_branch(rebuilt, x).data)


def test_from_param_groups_checks_names_shapes_and_groups(small_spec):
    groups = to_param_groups(init_backbone(small_spec, seed=14, with_projection=True))
    rebuilt = from_param_groups(small_spec, groups)
    assert rebuilt.projection is not None

    def altered(group, param, change):
        return [
            (g, [(p, change(a) if (g, p) == (group, param) else a) for p, a in items])
            for g, items in groups
        ]

    with pytest.raises(SpecError, match=r"trunk0\.W has shape \(3, 24\), expected \(16, 24\)"):
        from_param_groups(small_spec, altered("trunk0", "W", lambda a: a[:3]))
    with pytest.raises(SpecError, match=r"projection\.b has shape"):
        from_param_groups(small_spec, altered("projection", "b", lambda a: a[:-1]))
    renamed = [(g, [("V" if p == "W" else p, a) for p, a in items]) for g, items in groups]
    with pytest.raises(SpecError, match="'trunk0' holds"):
        from_param_groups(small_spec, renamed)
    with pytest.raises(SpecError, match="unknown parameter groups \\['bogus'\\]"):
        from_param_groups(small_spec, groups + [("bogus", [("W", np.zeros(2))])])
    with pytest.raises(SpecError, match="missing parameter group 'head'"):
        from_param_groups(small_spec, [(g, items) for g, items in groups if g != "head"])


def test_checkpoint_corruption_detected(tmp_path, small_spec):
    params = init_backbone(small_spec, seed=12)
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"backbone_spec": small_spec.to_dict()}, to_param_groups(params))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path, small_spec):
    params = init_backbone(small_spec, seed=13)
    path = tmp_path / "d.ckpt"
    save_checkpoint(path, {"backbone_spec": small_spec.to_dict()}, to_param_groups(params))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _train_small_image_protonet(episodes):
    from fsos.data import SyntheticSpec, generate_synthetic
    from fsos.episodes import EpisodeConfig, TrainSchedule, run_meta_training

    spec = BackboneSpec("image", (1, 4, 4), (("conv", 4), ("conv", 4)))
    ds = generate_synthetic(
        SyntheticSpec(num_classes=8, examples_per_class=12, dim=16, separation=8.0, seed=21),
        input_shape=(1, 4, 4),
    )
    return run_meta_training(
        "protonet", ds, EpisodeConfig(n=2, k=2, q=3),
        TrainSchedule(episodes=episodes, learning_rate=3e-3, val_interval=15, val_episodes=3),
        seed=21, spec=spec,
    )


def test_image_mode_trains_end_to_end():
    result = _train_small_image_protonet(30)
    assert len(result.loss_curve) == 30
    assert np.isfinite(result.loss_curve).all()
    assert result.best_val > 0.4


def test_image_mode_training_is_bit_reproducible():
    first, second = _train_small_image_protonet(15), _train_small_image_protonet(15)
    assert first.loss_curve == second.loss_curve
    groups = first.params.named_groups()
    assert [name for name, _ in groups] == ["trunk0", "head", "branch"]
    for (name, params), (name2, params2) in zip(groups, second.params.named_groups()):
        assert name == name2
        for (pname, a), (pname2, b) in zip(params, params2):
            assert pname == pname2
            assert np.array_equal(a.data, b.data), (name, pname)
