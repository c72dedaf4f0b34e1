"""Heads trained on a frozen extractor (mbce in both variants, ocml_frozen)
read the extractor's output from a per-run RowEmbeddings cache: one cached
step equals one gathered, taped step bit for bit, and no frozen tensor ever
reaches a tape. Their validation keeps its drawn episodes and frozen
embeddings for the run and re-embeds only the trained space at each point,
which scores every point as a fresh draw and a fresh cache would."""

from functools import partial

import numpy as np
import pytest

import fsos.episodes
from fsos import metabce, ocml
from fsos.autodiff import Tape, backward
from fsos.backbone import BackboneParams, BackboneSpec, add_projection, embed, init_backbone
from fsos.data import SyntheticSpec, generate_synthetic
from fsos.episodes import EpisodeConfig, TrainSchedule, draw_episode, run_meta_training
from fsos.episodes import _VAL_STREAM, _episode_rng, _gate_val_config, _gated, _scored_chunks
from fsos.protonet import RowEmbeddings

IMAGE_SPEC = BackboneSpec("image", (1, 8, 8), (("conv", 4), ("conv", 4)))
METHODS = [("mbce", "branch"), ("mbce", "projected"), ("ocml_frozen", "branch")]


@pytest.fixture(scope="module")
def image_dataset():
    spec = SyntheticSpec(num_classes=12, examples_per_class=20, dim=64, separation=8.0, seed=7)
    return generate_synthetic(spec, input_shape=(1, 8, 8))


def _head(method, variant, params):
    """(trainable tensors, loss(embed_fn, episode), taped embed_fn over input
    rows, cache space, cached embed_fn of a cache) of one frozen-extractor
    method."""
    if method == "ocml_frozen":
        transfer = ocml.make_transfer_module(params.embed_dim, seed=3)
        return (transfer.tensors(), partial(ocml.episode_loss, transfer), partial(embed, params),
                "main", lambda cache: partial(cache.take, "main"))
    if variant == "projected":
        add_projection(params)
        # away from the identity, so the projection changes the embeddings
        params.projection["W"].data += 0.1 * np.random.default_rng(3).normal(
            size=params.projection["W"].shape)
    head = metabce.init_head(variant)
    return (metabce.trainable_tensors(head, params), partial(metabce.episode_loss, head),
            partial(metabce.oneclass_embed, head, params), metabce.FROZEN_SPACE[variant],
            lambda cache: partial(metabce.cached_oneclass_embed, head, params, cache))


def _step(loss_fn, embed_fn, episode, trainable):
    with Tape() as tape:
        loss = loss_fn(embed_fn, episode)
    backward(tape, loss)
    grads = [t.grad for t in trainable]
    for t in trainable:
        t.grad = None
    return loss.data, grads


@pytest.mark.parametrize("fill", ["whole_episode", "single_row"])
@pytest.mark.parametrize("kind", ["vector", "image"])
@pytest.mark.parametrize("method,variant", METHODS)
def test_cached_step_equals_gathered_taped_step(method, variant, kind, fill, small_dataset,
                                                small_spec, image_dataset):
    dataset, spec = (small_dataset, small_spec) if kind == "vector" else (image_dataset,
                                                                          IMAGE_SPEC)
    params = init_backbone(spec, seed=3)
    trainable, loss_fn, taped_fn, space, cached_fn = _head(method, variant, params)
    table = dataset.row_table(dataset.split.meta_train)
    draw = draw_episode(table, EpisodeConfig(n=3, k=2, q=3, n_unknown=0), _episode_rng(3, 0, 0))
    want_loss, want_grads = _step(loss_fn, taped_fn, table.gather(draw), trainable)

    rows = np.concatenate([draw.support.ravel(), draw.query_rows])
    cache = RowEmbeddings(params, table.rows, (space,), slice_rows=rows.size)
    if fill == "single_row":
        # an episode's rows are distinct, so the fill below embeds rows[0] alone
        cache.fill(rows[1:])
    cache.fill(rows)
    loss, grads = _step(loss_fn, cached_fn(cache), draw, trainable)

    assert np.array_equal(loss, want_loss)
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("method,variant", METHODS)
def test_frozen_tensors_never_reach_a_tape(method, variant, small_dataset, small_spec,
                                           monkeypatch):
    base = init_backbone(small_spec, seed=4)
    copies = []
    copy = BackboneParams.copy
    monkeypatch.setattr(BackboneParams, "copy", lambda self: copies.append(copy(self)) or
                        copies[-1])
    result = run_meta_training(
        method, small_dataset, EpisodeConfig(n=3, k=2, q=3),
        TrainSchedule(episodes=6, val_interval=3, val_episodes=2), seed=4, base_params=base,
        variant=variant,
    )
    live = copies[0]  # the run's own parameters; later copies are snapshots
    trained = {("mbce", "branch"): "branch", ("mbce", "projected"): "projection"}.get(
        (method, variant))
    frozen = dict(base.named_groups())
    for params in (live, result.params):
        for group, items in params.named_groups():
            for name, tensor in items:
                # optimizers clear the gradients of what they train
                assert tensor.grad is None, (group, name)
                if group != trained:
                    assert np.array_equal(tensor.data, dict(frozen[group])[name].data)


@pytest.mark.parametrize("kind", ["vector", "image"])
@pytest.mark.parametrize("method,variant", METHODS)
def test_cached_validation_equals_a_fresh_cache_at_every_point(
        method, variant, kind, small_dataset, small_spec, image_dataset, monkeypatch):
    dataset, spec = (small_dataset, small_spec) if kind == "vector" else (image_dataset,
                                                                          IMAGE_SPEC)
    base = init_backbone(spec, seed=5)
    val_classes = dataset.split.meta_val
    val_cfg = _gate_val_config(val_classes, k=2)
    # chunks of 3 episodes: 3 chunks per point, refreshed rows span chunks
    m = (val_cfg.n + val_cfg.n_unknown) * val_cfg.q
    monkeypatch.setattr(fsos.episodes, "CHUNK_VALUES", 3 * m * base.embed_dim)
    copies = []
    copy = BackboneParams.copy
    monkeypatch.setattr(BackboneParams, "copy", lambda self: copies.append(copy(self)) or
                        copies[-1])
    val_na = fsos.episodes._gate_val_na
    fresh_na = []

    def checked(gate, chunks):
        # the recipe without a run cache: a fresh draw, a fresh RowEmbeddings
        fresh = [chunk for _, chunk in _scored_chunks(
            copies[0], dataset.row_table(val_classes), val_cfg, 8, 6, _VAL_STREAM,
            ("main",) + gate.spaces)]
        assert len(fresh) == 3

        def compared():
            # the run's chunks as it scores them, each next to its fresh twin
            for got, want in zip(chunks, fresh, strict=True):
                for a, b in zip(_gated(gate, got), _gated(gate, want)):
                    assert np.array_equal(a, b)
                yield got

        fresh_na.append(val_na(gate, fresh))
        return val_na(gate, compared())

    monkeypatch.setattr(fsos.episodes, "_gate_val_na", checked)
    result = run_meta_training(
        method, dataset, EpisodeConfig(n=3, k=2, q=3),
        TrainSchedule(episodes=12, learning_rate=0.05, val_interval=4, val_episodes=8),
        seed=6, base_params=base, variant=variant,
    )
    assert len(result.val_history) == 3
    assert [na for _, na in result.val_history] == fresh_na
