from functools import partial

import numpy as np
import pytest

from fsos.autodiff import Tape, gradient_check
from fsos.backbone import SpecError, embed, init_backbone
from fsos.episodes import (
    Episode,
    EpisodeConfig,
    MetaBceGate,
    TrainSchedule,
    max_prob_decision,
    run_meta_training,
    sample_episode,
    _episode_rng,
)
from fsos.metabce import (
    MetaBceError,
    episode_loss,
    init_head,
    prob_known,
)
from fsos.protonet import ProtonetError, embed_episode

from conftest import scored_episode


def test_prob_known_spot_values():
    head = init_head()
    e = np.zeros(4)
    # d=0, t=0 -> 0.5
    assert prob_known(head, e[None], e[None])[0, 0] == 0.5
    # d = ln 3, t = 0 -> sigmoid(-ln 3) = 1/4
    q = np.zeros(4)
    q[0] = np.sqrt(np.log(3.0))
    assert abs(prob_known(head, q[None], e[None])[0, 0] - 0.25) < 1e-12
    # d = 2, t = -2 -> offset cancels the distance
    head.t.data = np.asarray(-2.0)
    q2 = np.zeros(4)
    q2[0] = np.sqrt(2.0)
    assert abs(prob_known(head, q2[None], e[None])[0, 0] - 0.5) < 1e-12


def test_prob_known_monotone_in_distance_and_offset():
    head = init_head()
    proto = np.zeros((1, 3))
    qs = np.array([np.full(3, s) for s in (0.1, 0.5, 1.0)])
    ps = prob_known(head, qs, proto)[:, 0]
    assert ps[0] > ps[1] > ps[2]
    head.t.data = np.asarray(1.0)
    assert prob_known(head, qs[:1], proto)[0, 0] < ps[0]


def test_prob_known_dim_mismatch():
    with pytest.raises(ProtonetError):
        prob_known(init_head(), np.zeros((1, 3)), np.zeros((1, 4)))
    # unstacked vectors are refused, not squeezed
    with pytest.raises(ProtonetError):
        prob_known(init_head(), np.zeros(3), np.zeros(3))


def test_prob_unknown_complement_and_ties():
    head = init_head()
    protos = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.2]])
    q = np.array([[0.3, 0.1]])
    probs = prob_known(head, q, protos)
    score, is_known = max_prob_decision(probs)
    assert score[0] == probs.max()  # p_unknown = 1 - score
    # n=1 reduces to the one-class probability
    single, _ = max_prob_decision(prob_known(head, q, protos[:1]))
    assert single[0] == prob_known(head, q[:1], protos[:1])[0, 0]
    # d=0, t=0 gives exactly 0.5, and a tie at 0.5 resolves to known
    tie, tie_known = max_prob_decision(prob_known(head, np.zeros((1, 2)), protos[:1]))
    assert tie[0] == 0.5 and tie_known[0]


def test_prob_unknown_duplicate_prototype_invariant():
    head = init_head()
    protos = np.array([[0.0, 0.0], [2.0, 0.0]])
    dup = np.vstack([protos, protos[1:]])
    q = np.array([[0.5, 0.5]])
    a = max_prob_decision(prob_known(head, q, protos))
    b = max_prob_decision(prob_known(head, q, dup))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _episode_of(x_by_class, k, q):
    sup = np.concatenate([v[:k] for v in x_by_class])
    queries = np.concatenate([v[k : k + q] for v in x_by_class])
    return Episode(tuple(range(len(x_by_class))), sup, queries, q)


def test_episode_loss_half_probabilities_is_log_two(small_spec):
    # identical support and query points: d=0 everywhere, t=0 -> every pair 0.5
    params = init_backbone(small_spec, seed=2)
    head = init_head()
    x = np.random.default_rng(0).normal(size=16)
    ep = _episode_of([np.tile(x, (2, 1)), np.tile(x, (2, 1))], k=1, q=1)
    with Tape():
        loss = episode_loss(head, embed_episode(partial(embed, params, space=head.variant), ep),
                            ep)
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_episode_loss_single_positive_pair(small_spec):
    params = init_backbone(small_spec, seed=2)
    head = init_head()
    x = np.random.default_rng(1).normal(size=16)
    ep = _episode_of([np.tile(x, (2, 1))], k=1, q=1)
    with Tape():
        loss = episode_loss(head, embed_episode(partial(embed, params, space=head.variant), ep),
                            ep)
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_episode_loss_gradients_pass_check(small_spec, small_dataset):
    params = init_backbone(small_spec, seed=3)
    cfg = EpisodeConfig(n=2, k=3, q=4, n_unknown=0)
    ep = sample_episode(small_dataset, small_dataset.split.meta_train, cfg,
                        np.random.default_rng(5))
    head = init_head()

    def build(ps):
        head.t = ps[0]
        params.branch["W"], params.branch["b"] = ps[1], ps[2]
        inputs = embed_episode(partial(embed, params, space=head.variant), ep)
        return episode_loss(head, inputs, ep)

    point = [
        np.array(0.1),
        params.branch["W"].data.copy(),
        params.branch["b"].data.copy(),
    ]
    report = gradient_check(build, point, tolerance=1e-4)
    assert report.passed, report.errors


def test_variants_and_projection_requirement(small_spec):
    with pytest.raises(MetaBceError):
        init_head("bogus")
    params = init_backbone(small_spec, seed=4)
    head = init_head("projected")
    with pytest.raises(SpecError, match="projection"):
        embed(params, np.zeros((1, 16)), head.variant)


def test_train_lr_zero_keeps_head_bit_identical(small_dataset, small_spec):
    base = init_backbone(small_spec, seed=5)
    cfg = EpisodeConfig(n=2, k=3, q=4)
    sched = TrainSchedule(episodes=10, learning_rate=0.0, optimizer="sgd",
                          val_interval=5, val_episodes=2, offset_learning_rate=0.0)
    result = run_meta_training("mbce", small_dataset, cfg, sched, seed=5, base_params=base)
    assert float(result.head.t.data) == 0.0
    for (_, ta), (_, tb) in zip(sorted(result.params.branch.items()),
                                 sorted(base.branch.items())):
        assert np.array_equal(ta.data, tb.data)


def test_train_requires_base_params(small_dataset):
    with pytest.raises(Exception):
        run_meta_training("mbce", small_dataset, EpisodeConfig(n=2, k=3, q=4),
                          TrainSchedule(episodes=5), seed=1)


def test_train_freezes_closed_set_predictions(small_dataset, small_spec):
    base = init_backbone(small_spec, seed=6)
    x = np.random.default_rng(7).normal(size=(20, 16))
    before = embed(base, x).data.copy()
    cfg = EpisodeConfig(n=2, k=3, q=4)
    sched = TrainSchedule(episodes=60, learning_rate=1e-4, optimizer="sgd",
                          val_interval=30, val_episodes=3, offset_learning_rate=0.05)
    result = run_meta_training("mbce", small_dataset, cfg, sched, seed=6, base_params=base)
    assert np.array_equal(embed(base, x).data, before)
    assert np.array_equal(embed(result.params, x).data, before)
    # the branch did move
    moved = any(
        not np.array_equal(ta.data, tb.data)
        for (_, ta), (_, tb) in zip(sorted(result.params.branch.items()),
                                    sorted(base.branch.items()))
    )
    assert moved


def test_trained_head_separates_known_from_unknown(small_dataset, small_spec):
    base = init_backbone(small_spec, seed=8)
    pn = run_meta_training(
        "protonet", small_dataset, EpisodeConfig(n=3, k=3, q=5),
        TrainSchedule(episodes=250, learning_rate=5e-3, val_interval=100, val_episodes=5),
        seed=8, spec=small_spec, base_params=base,
    )
    mb = run_meta_training(
        "mbce", small_dataset, EpisodeConfig(n=3, k=3, q=5),
        TrainSchedule(episodes=500, learning_rate=1e-4, optimizer="sgd",
                      val_interval=100, val_episodes=10, offset_learning_rate=0.05),
        seed=8, base_params=pn.params,
    )
    gate = MetaBceGate(mb.head)
    cfg = EpisodeConfig(n=1, k=3, q=10, n_unknown=1)
    known_p, unknown_p = [], []
    for i in range(20):
        ep = sample_episode(small_dataset, small_dataset.split.meta_test, cfg,
                            _episode_rng(99, 2, i))
        score, _ = gate.judge(scored_episode(mb.params, ep, gate.spaces))
        known_p.extend(score[0, : ep.q])
        unknown_p.extend(score[0, ep.q :])
    assert np.mean(known_p) > np.mean(unknown_p)
