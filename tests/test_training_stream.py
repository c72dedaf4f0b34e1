"""Meta-training draws its episodes DRAW_AHEAD at a time, with one generator
set to each episode's derived state. Across block boundaries, and on
classes of unequal sizes, the stream stays what it is episode by episode:
loss i receives draw_episode(table, cfg, _episode_rng(seed, 0, i)), a
shorter run's loss curve is a prefix of a longer run's, and a head on a
frozen extractor fills its training cache once per block."""

import numpy as np
import pytest

import fsos.episodes
from fsos import metabce, ocml, protonet
from fsos.backbone import DEFAULT_VECTOR_SPEC, init_backbone
from fsos.data import Dataset, SyntheticSpec, generate_synthetic
from fsos.episodes import (
    DRAW_AHEAD,
    EpisodeConfig,
    EpisodeError,
    MetaSplit,
    TrainSchedule,
    draw_episode,
    run_meta_training,
    _episode_rng,
)
from fsos.protonet import RowEmbeddings

SEED = 9
EPISODES = DRAW_AHEAD + 7
CFG = EpisodeConfig(n=3, k=2, q=3, n_unknown=0)  # training draws no unknown classes
LOSS_MODULE = {"protonet": protonet, "mbce": metabce, "ocml_frozen": ocml}


def _train(method, dataset, spec, episodes):
    base = None if method == "protonet" else init_backbone(spec, seed=4)
    schedule = TrainSchedule(episodes=episodes, val_interval=episodes, val_episodes=2)
    return run_meta_training(method, dataset, CFG, schedule, seed=SEED, base_params=base,
                             spec=spec)


@pytest.mark.parametrize("method", sorted(LOSS_MODULE))
def test_each_loss_receives_its_own_episode(method, small_dataset, small_spec, monkeypatch):
    module = LOSS_MODULE[method]
    received = []
    loss = module.episode_loss
    # the episode is every loss's last argument
    monkeypatch.setattr(module, "episode_loss", lambda *a: received.append(a[-1]) or loss(*a))
    _train(method, small_dataset, small_spec, EPISODES)
    table = small_dataset.row_table(small_dataset.split.meta_train)
    assert len(received) == EPISODES
    for i, got in enumerate(received):
        want = draw_episode(table, CFG, _episode_rng(SEED, 0, i))
        assert (got.class_ids, got.q) == (want.class_ids, want.q), i
        for name in ("support", "queries"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (i, name)


@pytest.mark.parametrize("method", sorted(LOSS_MODULE))
def test_shorter_loss_curve_is_a_prefix(method, small_dataset, small_spec):
    full = _train(method, small_dataset, small_spec, EPISODES).loss_curve
    for episodes in (DRAW_AHEAD - 3, DRAW_AHEAD + 2):
        assert _train(method, small_dataset, small_spec, episodes).loss_curve == full[:episodes]


@pytest.mark.parametrize("method", ["protonet", "ocml_frozen"])
def test_each_loss_receives_its_own_episode_on_unequal_classes(method, small_spec, monkeypatch):
    """meta_train classes of 5 to 24 rows, in runs of equal and of unequal
    sizes: every loss still receives draw_episode of its own generator."""
    sizes = [5, 24, 24, 9, 5, 5, 17, 12, 14, 12, 10, 16]
    rng = np.random.default_rng(3)
    dataset = Dataset("uneven", {c: rng.normal(size=(size, 16)) for c, size in enumerate(sizes)},
                      MetaSplit(tuple(range(7)), (7, 8), (9, 10, 11)))
    module = LOSS_MODULE[method]
    received = []
    loss = module.episode_loss
    monkeypatch.setattr(module, "episode_loss", lambda *a: received.append(a[-1]) or loss(*a))
    _train(method, dataset, small_spec, EPISODES)
    table = dataset.row_table(dataset.split.meta_train)
    assert len(received) == EPISODES
    for i, got in enumerate(received):
        want = draw_episode(table, CFG, _episode_rng(SEED, 0, i))
        assert (got.class_ids, got.q) == (want.class_ids, want.q), i
        for name in ("support", "queries"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (i, name)


@pytest.mark.parametrize("method", ["mbce", "ocml_frozen"])
def test_frozen_run_fills_its_training_cache_once_per_block(method, small_dataset, small_spec,
                                                            monkeypatch):
    filled = []
    fill = RowEmbeddings.fill
    monkeypatch.setattr(RowEmbeddings, "fill", lambda cache, indices:
                        filled.append((cache, set(indices.tolist()))) or fill(cache, indices))
    _train(method, small_dataset, small_spec, EPISODES)
    training = filled[0][0]  # the first block is filled before the first step
    assert len(filled) > 2  # validation scores with caches of its own
    table = small_dataset.row_table(small_dataset.split.meta_train)
    blocks = []
    for start in range(0, EPISODES, DRAW_AHEAD):
        rows = set()
        for i in range(start, min(start + DRAW_AHEAD, EPISODES)):
            draw = draw_episode(table, CFG, _episode_rng(SEED, 0, i))
            rows.update(draw.support.tolist(), draw.queries.tolist())
        blocks.append(rows)
    assert len(blocks) == 2
    assert [rows for cache, rows in filled if cache is training] == blocks


@pytest.mark.parametrize("method", ["protonet", "mbce", "ocml_frozen", "ocml_joint"])
def test_one_way_training_raises_before_drawing(method, small_dataset, small_spec,
                                                monkeypatch):
    def refuse(*args):
        raise AssertionError("an episode was drawn")

    monkeypatch.setattr(fsos.episodes, "draw_episode", refuse)
    monkeypatch.setattr(fsos.episodes, "_draw_permutations", refuse)
    with pytest.raises(EpisodeError, match=f"{method} training needs n >= 2"):
        run_meta_training(method, small_dataset, EpisodeConfig(n=1, k=2, q=3),
                          TrainSchedule(episodes=3), seed=SEED,
                          base_params=init_backbone(small_spec, seed=4))


@pytest.mark.parametrize("method, kinds", [
    ("protonet", ["affine", "affine", "mean_rows", "affine", "affine", "squared_distance",
                  "scale_shift", "softmax_xent"]),
    ("mbce", ["affine", "mean_rows", "affine", "squared_distance", "scale_shift", "scale_shift",
              "bce"]),
])
def test_training_step_records_one_tape_entry_per_dense_layer(method, kinds, monkeypatch):
    """On DEFAULT_VECTOR_SPEC a dense layer and its ReLU are one affine entry;
    the ProtoNet loss's labels are one shared read-only tensor, and neither
    they nor the losses' scale_shift constants are given a gradient."""
    dataset = generate_synthetic(SyntheticSpec(num_classes=12, examples_per_class=20,
                                               dim=DEFAULT_VECTOR_SPEC.input_shape[0], seed=2))
    recorded, labels = [], []
    step = fsos.episodes.backward

    def record(tape, loss):
        recorded.append([e.kind for e in tape.entries])
        labels.extend(e.inputs[1] for e in tape.entries if e.kind == "softmax_xent")
        step(tape, loss)

    monkeypatch.setattr(fsos.episodes, "backward", record)
    base = None if method == "protonet" else init_backbone(DEFAULT_VECTOR_SPEC, seed=4)
    run_meta_training(method, dataset, CFG, TrainSchedule(episodes=5, val_interval=5,
                                                          val_episodes=2),
                      seed=SEED, base_params=base, spec=DEFAULT_VECTOR_SPEC)
    assert recorded == [kinds] * 5
    assert len(labels) == (5 if method == "protonet" else 0)
    shared = protonet.episode_labels(CFG.n, CFG.q)
    for tensor in labels:
        assert tensor is shared
    assert not shared.data.flags.writeable
    assert np.array_equal(shared.data, np.arange(CFG.n).repeat(CFG.q))
    for tensor in (shared, protonet.MINUS_ONE, protonet.ZERO):
        assert tensor.grad is None and not tensor.requires_grad
    assert (protonet.MINUS_ONE.data, protonet.ZERO.data) == (-1.0, 0.0)


@pytest.mark.parametrize("method", ["mbce", "ocml_frozen"])
def test_every_bce_step_reads_one_read_only_targets_tensor(method, monkeypatch):
    """The BCE losses take their targets from protonet.bce_targets: every
    step of a run reads the one cached tensor of its episode shape, which is
    read-only and never given a gradient."""
    dataset = generate_synthetic(SyntheticSpec(num_classes=12, examples_per_class=20,
                                               dim=DEFAULT_VECTOR_SPEC.input_shape[0], seed=2))
    targets = []
    step = fsos.episodes.backward

    def record(tape, loss):
        targets.extend(e.inputs[1] for e in tape.entries if e.kind == "bce")
        step(tape, loss)

    monkeypatch.setattr(fsos.episodes, "backward", record)
    run_meta_training(method, dataset, CFG, TrainSchedule(episodes=5, val_interval=5,
                                                          val_episodes=2),
                      seed=SEED, base_params=init_backbone(DEFAULT_VECTOR_SPEC, seed=4))
    shared = protonet.bce_targets(CFG.n, CFG.q)
    assert len(targets) == 5 and all(tensor is shared for tensor in targets)
    assert not shared.data.flags.writeable
    assert shared.grad is None and not shared.requires_grad
    assert np.array_equal(shared.data, np.eye(CFG.n).repeat(CFG.q, axis=0))
