from functools import partial

import numpy as np
import pytest

from fsos.autodiff import Tape, Tensor, gradient_check
from fsos.backbone import embed, init_backbone
from fsos.episodes import (
    Episode,
    EpisodeConfig,
    OcmlGate,
    TrainSchedule,
    max_prob_decision,
    run_meta_training,
    sample_episode,
    _episode_rng,
)
from fsos.ocml import (
    OcmlError,
    TransferModule,
    architecture_menu,
    episode_loss,
    generate_weight,
    make_transfer_module,
    prob_known,
    transfer_from_group,
    transfer_to_group,
)
from fsos.protonet import embed_episode

from conftest import scored_episode


def _identity_transfer(e):
    return TransferModule([(Tensor(np.eye(e), requires_grad=True), None)], "1layer")


def _zero_transfer(e):
    return TransferModule([(Tensor(np.zeros((e, e)), requires_grad=True), None)], "1layer")


def test_generate_weight_identity_and_zero_maps():
    proto = np.array([1.0, -2.0, 0.5])
    w = generate_weight(_identity_transfer(3), proto[None])
    assert np.array_equal(w.data[0], proto)
    wz = generate_weight(_zero_transfer(3), proto[None])
    assert np.array_equal(wz.data[0], np.zeros(3))
    # zero weights give probability exactly one half for any query
    assert prob_known(wz.data, np.array([[4.0, 5.0, 6.0]]))[0, 0] == 0.5


def test_generate_weight_deterministic_and_dim_checked():
    g = make_transfer_module(4, seed=3)
    proto = np.arange(4.0)[None]
    assert np.array_equal(generate_weight(g, proto).data[0], generate_weight(g, proto).data[0])
    with pytest.raises(OcmlError):
        generate_weight(g, np.zeros((1, 5)))
    # a lone [e] prototype is refused, not treated as one row
    with pytest.raises(OcmlError):
        generate_weight(g, np.arange(4.0))


def test_prob_known_spot_values():
    e = 3
    w = np.zeros((1, e))
    assert prob_known(w, np.ones((1, e)))[0, 0] == 0.5
    # w . f = ln 3 -> 3/4
    w2 = np.array([[np.log(3.0), 0.0, 0.0]])
    assert abs(prob_known(w2, np.array([[1.0, 0.0, 0.0]]))[0, 0] - 0.75) < 1e-12
    # unstacked vectors are refused, not squeezed
    with pytest.raises(OcmlError):
        prob_known(w[0], np.ones(e))


def test_prob_known_scaling_moves_toward_saturation():
    w = np.array([[0.4, -0.2]])
    f = np.array([[1.0, 0.3]])
    base = prob_known(w, f)[0, 0]
    up = prob_known(3.0 * w, f)[0, 0]
    assert (base - 0.5) * (up - 0.5) > 0
    assert abs(up - 0.5) > abs(base - 0.5)


def test_prob_unknown_complement_and_duplicates():
    g = _identity_transfer(2)
    protos = np.array([[1.0, 0.0], [-0.5, 0.2]])
    q = np.array([[0.7, 0.1]])

    def decide(ps):
        return max_prob_decision(prob_known(generate_weight(g, ps).data, q))

    probs = prob_known(generate_weight(g, protos).data, q)
    score, _ = decide(protos)
    assert score[0] == probs.max()  # p_unknown = 1 - score
    dup_score, _ = decide(np.vstack([protos, protos[:1]]))
    assert np.array_equal(dup_score, score)
    single, _ = decide(protos[:1])
    assert single[0] == prob_known(generate_weight(g, protos[:1]).data, q[:1])[0, 0]
    # zero weights give exactly 0.5, and a tie at 0.5 resolves to known
    tie, tie_known = max_prob_decision(prob_known(np.zeros((1, 2)), q))
    assert tie[0] == 0.5 and tie_known[0]


def test_architecture_menu_scales_reference_widths():
    menu = architecture_menu(64)
    assert menu[0] == ("1layer", None)
    assert [m for _, m in menu[1:]] == [4, 20, 40]
    assert [name for name, _ in menu] == [
        "1layer", "2layers_mid4", "2layers_mid20", "2layers_mid40",
    ]


def test_two_layer_module_shapes_and_bias_rules():
    g = make_transfer_module(6, middle_dim=3, seed=0)
    (w1, b1), (w2, b2) = g.layers
    assert w1.data.shape == (6, 3) and b1 is not None
    assert w2.data.shape == (3, 6) and b2 is None
    out = generate_weight(g, np.ones((1, 6)))
    assert out.data[0].shape == (6,)


def test_episode_loss_half_logits_is_log_two(small_spec):
    params = init_backbone(small_spec, seed=1)
    g = _zero_transfer(small_spec.embed_dim)
    rng = np.random.default_rng(0)
    ep = Episode((0, 1), rng.normal(size=(4, 16)), rng.normal(size=(6, 16)), 3)
    with Tape():
        loss = episode_loss(g, embed_episode(partial(embed, params), ep), ep)
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_episode_loss_gradients_pass_check(small_spec, small_dataset):
    params = init_backbone(small_spec, seed=2)
    cfg = EpisodeConfig(n=2, k=2, q=3, n_unknown=0)
    ep = sample_episode(small_dataset, small_dataset.split.meta_train, cfg,
                        np.random.default_rng(4))
    g = make_transfer_module(small_spec.embed_dim, seed=2)

    def build(ps):
        g.layers[0] = (ps[0], None)
        params.head["W"], params.head["b"] = ps[1], ps[2]
        return episode_loss(g, embed_episode(partial(embed, params), ep), ep)

    point = [
        g.layers[0][0].data.copy(),
        params.head["W"].data.copy(),
        params.head["b"].data.copy(),
    ]
    report = gradient_check(build, point, tolerance=1e-4)
    assert report.passed, report.errors


def test_frozen_training_keeps_embeddings_bit_identical(small_dataset, small_spec):
    base = init_backbone(small_spec, seed=3)
    x = np.random.default_rng(5).normal(size=(10, 16))
    before = embed(base, x).data.copy()
    result = run_meta_training(
        "ocml_frozen", small_dataset, EpisodeConfig(n=2, k=2, q=3),
        TrainSchedule(episodes=40, learning_rate=3e-3, val_interval=20, val_episodes=3),
        seed=3, base_params=base,
    )
    assert np.array_equal(embed(result.params, x).data, before)
    assert np.array_equal(embed(base, x).data, before)


def test_lr_zero_keeps_everything_bit_identical(small_dataset, small_spec):
    base = init_backbone(small_spec, seed=4)
    snapshot = [t.data.copy() for t in base.trunk_tensors() + base.head_tensors()]
    for mode in ("ocml_frozen", "ocml_joint"):
        result = run_meta_training(
            mode, small_dataset, EpisodeConfig(n=2, k=2, q=3),
            TrainSchedule(episodes=8, learning_rate=0.0, val_interval=4, val_episodes=2),
            seed=4, base_params=base,
        )
        got = [t.data for t in result.params.trunk_tensors() + result.params.head_tensors()]
        for a, b in zip(snapshot, got):
            assert np.array_equal(a, b)


def test_joint_training_moves_backbone(small_dataset, small_spec):
    base = init_backbone(small_spec, seed=5)
    before = [t.data.copy() for t in base.head_tensors()]
    result = run_meta_training(
        "ocml_joint", small_dataset, EpisodeConfig(n=2, k=2, q=3),
        TrainSchedule(episodes=40, learning_rate=3e-3, val_interval=20, val_episodes=3),
        seed=5, base_params=base,
    )
    after = [t.data for t in result.params.head_tensors()]
    assert any(not np.array_equal(a, b) for a, b in zip(before, after))
    # the input params object itself is untouched
    assert all(np.array_equal(a, t.data) for a, t in zip(before, base.head_tensors()))


def test_trained_module_separates_known_from_unknown(small_dataset, small_spec):
    pn = run_meta_training(
        "protonet", small_dataset, EpisodeConfig(n=3, k=3, q=5),
        TrainSchedule(episodes=250, learning_rate=5e-3, val_interval=100, val_episodes=5),
        seed=6, spec=small_spec,
    )
    oc = run_meta_training(
        "ocml_frozen", small_dataset, EpisodeConfig(n=3, k=3, q=5),
        TrainSchedule(episodes=500, learning_rate=3e-3, val_interval=100, val_episodes=10),
        seed=6, base_params=pn.params,
    )
    gate = OcmlGate(oc.head)
    cfg = EpisodeConfig(n=1, k=3, q=10, n_unknown=1)
    known_s, unknown_s = [], []
    for i in range(20):
        ep = sample_episode(small_dataset, small_dataset.split.meta_test, cfg,
                            _episode_rng(98, 2, i))
        score, _ = gate.judge(scored_episode(pn.params, ep, gate.spaces))
        known_s.extend(score[0, : ep.q])
        unknown_s.extend(score[0, ep.q :])
    assert np.mean(known_s) > np.mean(unknown_s)


def test_transfer_group_round_trip():
    g = make_transfer_module(5, middle_dim=2, seed=9)
    group, meta = transfer_to_group(g)
    rebuilt = transfer_from_group(group[1], meta)
    assert rebuilt.architecture == g.architecture
    proto = np.random.default_rng(1).normal(size=5)[None]
    assert np.array_equal(
        generate_weight(g, proto).data[0], generate_weight(rebuilt, proto).data[0]
    )
