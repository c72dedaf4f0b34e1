"""Heads trained on a frozen extractor (mbce in both variants, ocml_frozen)
read the extractor's output from a per-run RowEmbeddings cache: one cached
step equals one gathered, taped step bit for bit, and no frozen tensor ever
reaches a tape."""

from functools import partial

import numpy as np
import pytest

from fsos import metabce, ocml
from fsos.autodiff import Tape, backward
from fsos.backbone import BackboneParams, BackboneSpec, add_projection, embed, init_backbone
from fsos.data import SyntheticSpec, generate_synthetic
from fsos.episodes import EpisodeConfig, TrainSchedule, draw_episode, run_meta_training
from fsos.episodes import _episode_rng
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
