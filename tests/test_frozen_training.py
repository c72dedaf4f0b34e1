"""Heads trained on a frozen extractor (mbce, mbce_projected, ocml_frozen)
read the extractor's output from a per-run RowEmbeddings cache: one cached
step equals one gathered, taped step bit for bit, and no frozen tensor ever
reaches a tape. Their validation keeps its drawn episodes and frozen
embeddings for the run and re-embeds only the trained space at each point,
which scores every point as a fresh draw and a fresh cache would."""

from functools import partial

import numpy as np
import pytest

import fsos.episodes
from fsos import metabce, ocml, protonet
from fsos.autodiff import Tape, Tensor, backward, bce
from fsos.backbone import SOURCE, BackboneParams, BackboneSpec, add_projection, embed
from fsos.backbone import init_backbone
from fsos.data import SyntheticSpec, generate_synthetic
from fsos.episodes import DRAW_AHEAD, EpisodeConfig, TrainSchedule, draw_episode
from fsos.episodes import run_meta_training
from fsos.episodes import sample_episode
from fsos.episodes import _VAL_STREAM, _episode_rng, _gate_val_config, _gated, _scored_chunks
from fsos.protonet import ProtonetError, RowEmbeddings, ScoredChunk, embed_episode

IMAGE_SPEC = BackboneSpec("image", (1, 8, 8), (("conv", 4), ("conv", 4)))
# 8 channels: a fill of main and branch runs the head and branch blocks as
# one wide block (backbone.embed_main_and_branch), refresh the branch alone
WIDE_IMAGE_SPEC = BackboneSpec("image", (1, 8, 8), (("conv", 8), ("conv", 8)))
# (method, the one-class space of an mbce head)
METHODS = [pytest.param("mbce", "branch", id="mbce-branch"),
           pytest.param("mbce_projected", "projected", id="mbce-projected"),
           pytest.param("ocml_frozen", "branch", id="ocml_frozen-branch")]


@pytest.fixture(scope="module")
def image_dataset():
    spec = SyntheticSpec(num_classes=12, examples_per_class=20, dim=64, separation=8.0, seed=7)
    return generate_synthetic(spec, input_shape=(1, 8, 8))


def _head(method, variant, params):
    """(trainable tensors, loss(inputs, episode), taped embed_fn over input
    rows, cache space, cached embed_fn of a cache) of one frozen-extractor
    method."""
    if method == "ocml_frozen":
        transfer = ocml.make_transfer_module(params.embed_dim, seed=3)
        return (transfer.tensors(), partial(ocml.episode_loss, transfer), partial(embed, params),
                "main", lambda cache: partial(cache.embed, "main"))
    if variant == "projected":
        add_projection(params)
        # away from the identity, so the projection changes the embeddings
        params.projection["W"].data += 0.1 * np.random.default_rng(3).normal(
            size=params.projection["W"].shape)
    head = metabce.init_head(variant)
    return (metabce.trainable_tensors(head, params), partial(metabce.episode_loss, head),
            partial(embed, params, space=variant), SOURCE[variant],
            lambda cache: partial(cache.embed, variant))


def _step(loss_fn, embed_fn, episode, trainable):
    with Tape() as tape:
        loss = loss_fn(embed_episode(embed_fn, episode), episode)
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
    cfg = EpisodeConfig(n=3, k=2, q=3, n_unknown=0)
    draw = draw_episode(table, cfg, _episode_rng(3, 0, 0))
    gathered = sample_episode(dataset, dataset.split.meta_train, cfg, _episode_rng(3, 0, 0))
    want_loss, want_grads = _step(loss_fn, taped_fn, gathered, trainable)

    rows = np.concatenate([draw.support, draw.queries])
    cache = RowEmbeddings(params, table.rows, (space,))
    if fill == "single_row":
        # an episode's rows are distinct, so the fill below embeds rows[0] alone
        cache.fill(rows[1:])
    cache.fill(rows)
    loss, grads = _step(loss_fn, cached_fn(cache), draw, trainable)

    assert np.array_equal(loss, want_loss)
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(got, want)


def _block(params, space):
    return {"main": params.head, "branch": params.branch, "projected": params.projection}[space]


@pytest.mark.parametrize("kind", ["vector", "image"])
@pytest.mark.parametrize("space", list(SOURCE))
def test_cache_spaces_equal_the_uncached_embedding(space, kind, small_dataset, small_spec,
                                                   image_dataset, monkeypatch):
    dataset, spec = (small_dataset, small_spec) if kind == "vector" else (image_dataset,
                                                                          IMAGE_SPEC)
    params = add_projection(init_backbone(spec, seed=8))
    rng = np.random.default_rng(8)

    def move(block):
        for t in block.values():
            t.data += 0.1 * rng.normal(size=t.shape)

    move(params.branch)
    move(params.projection)
    rows = dataset.row_table(dataset.split.meta_train).rows[:9]
    indices = np.array([4, 0, 7, 4, 8])
    want = embed(params, rows[indices], space).data
    # slices of 4 rows and a 1-row tail
    monkeypatch.setattr(protonet, "SLICE_VALUES", 4 * protonet._values_per_row(spec))
    held = RowEmbeddings(params, rows, (space, SOURCE[space]))
    held.fill(np.arange(9))
    source = RowEmbeddings(params, rows, (SOURCE[space],))
    source.fill(np.arange(9))
    assert np.array_equal(held.embed(space, indices), want)
    assert np.array_equal(source.embed(space, indices).data, want)

    # the space's block trains: refresh re-embeds it from the cached source
    move(_block(params, space))
    held.refresh(space)
    want = embed(params, rows[indices], space).data
    assert np.array_equal(held.embed(space, indices), want)
    assert np.array_equal(source.embed(space, indices).data, want)

    # a computed space is on the tape: its block's gradients equal the uncached route's
    target = Tensor((rng.normal(size=want.shape) > 0).astype(float))
    trained = [t for _, t in sorted(_block(params, space).items())]
    grads = []
    for route in (lambda: embed(params, rows[indices], space),
                  lambda: source.embed(space, indices)):
        with Tape() as tape:
            loss = bce(route(), target)
        backward(tape, loss)
        grads.append([t.grad for t in trained])
        for block in params.trunk + [params.head, params.branch, params.projection]:
            for t in block.values():
                t.grad = None
    for got, want_grad in zip(grads[1], grads[0], strict=True):
        assert got is not None and np.array_equal(got, want_grad)


@pytest.mark.parametrize("held,space", [(("main",), "branch"), (("branch",), "projected"),
                                        (("projected",), "main"), (("main",), "trunk")])
def test_cache_refuses_a_space_it_neither_holds_nor_can_compute(held, space, small_dataset,
                                                                 small_spec):
    """A space the cache does not hold is computed only from its held SOURCE
    space (trunk has none); without either, the error names the space asked for."""
    params = add_projection(init_backbone(small_spec, seed=8))
    rows = small_dataset.row_table(small_dataset.split.meta_train).rows[:4]
    cache = RowEmbeddings(params, rows, held)
    cache.fill(np.arange(4))
    with pytest.raises(ProtonetError, match=f"{space!r} was not requested"):
        cache.embed(space, np.arange(4))


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
    )
    live = copies[0]  # the run's own parameters; later copies are snapshots
    trained = {"mbce": "branch", "mbce_projected": "projection"}.get(method)
    frozen = dict(base.named_groups())
    for params in (live, result.params):
        for group, items in params.named_groups():
            for name, tensor in items:
                # optimizers clear the gradients of what they train
                assert tensor.grad is None, (group, name)
                if group != trained:
                    assert np.array_equal(tensor.data, dict(frozen[group])[name].data)


@pytest.mark.parametrize("kind", ["vector", "image", "image_wide"])
@pytest.mark.parametrize("method,variant", METHODS)
def test_cached_validation_equals_a_fresh_cache_at_every_point(
        method, variant, kind, small_dataset, small_spec, image_dataset, monkeypatch):
    dataset, spec = {"vector": (small_dataset, small_spec), "image": (image_dataset, IMAGE_SPEC),
                     "image_wide": (image_dataset, WIDE_IMAGE_SPEC)}[kind]
    base = init_backbone(spec, seed=5)
    val_classes = dataset.split.meta_val
    val_cfg = _gate_val_config(val_classes, k=2)
    # chunks of 3 episodes in slices of one: 3 chunks per point, refreshed
    # rows span chunks
    m = (val_cfg.n + val_cfg.n_unknown) * val_cfg.q
    monkeypatch.setattr(fsos.episodes, "CHUNK_VALUES", m * base.embed_dim)
    monkeypatch.setattr(fsos.episodes, "CHUNK_QUERIES", 3 * m)
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
        seed=6, base_params=base,
    )
    assert len(result.val_history) == 3
    assert [na for _, na in result.val_history] == fresh_na


@pytest.mark.parametrize("kind", ["vector", "image"])
def test_block_prototypes_equal_the_per_episode_step(kind, small_dataset, small_spec,
                                                      image_dataset, monkeypatch):
    """ocml_frozen takes each step's prototypes from its training block's
    ScoredChunk, and its kept validation chunks keep their main prototypes:
    the run equals one whose every step embeds its episode on the tape
    (embed_episode over the training cache) and whose every validation point
    computes its prototypes again, bit for bit, over a budget that crosses a
    block boundary and ends inside a block."""
    dataset, spec = (small_dataset, small_spec) if kind == "vector" else (image_dataset,
                                                                          IMAGE_SPEC)
    base = init_backbone(spec, seed=7)
    episodes = 150
    assert DRAW_AHEAD < episodes < 3 * DRAW_AHEAD and episodes % DRAW_AHEAD

    def train():
        return run_meta_training(
            "ocml_frozen", dataset, EpisodeConfig(n=3, k=5, q=3),
            TrainSchedule(episodes=episodes, learning_rate=0.05, val_interval=50,
                          val_episodes=6), seed=7, base_params=base)

    kinds = []
    taped = fsos.episodes.backward
    monkeypatch.setattr(fsos.episodes, "backward", lambda tape, loss: kinds.append(
        {e.kind for e in tape.entries}) or taped(tape, loss))
    got = train()
    assert len(kinds) == episodes and not any("mean_rows" in k for k in kinds)

    caches = []
    fill = RowEmbeddings.fill
    monkeypatch.setattr(RowEmbeddings, "fill", lambda cache, indices:
                        caches.append(cache) or fill(cache, indices))
    loss = ocml.episode_loss
    # the per-episode step: the first filled cache is the training one
    monkeypatch.setattr(ocml, "episode_loss", lambda transfer, inputs, episode: loss(
        transfer, embed_episode(partial(caches[0].embed, "main"), episode), episode))
    monkeypatch.setattr(ScoredChunk, "forget", lambda chunk, spaces: chunk._prototypes.clear())
    want = train()
    assert got.loss_curve == want.loss_curve
    assert got.val_history == want.val_history and len(got.val_history) == 3
    for a, b in zip(got.head.tensors(), want.head.tensors(), strict=True):
        assert np.array_equal(a.data, b.data)
