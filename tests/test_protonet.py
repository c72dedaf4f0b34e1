from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsos.autodiff import Tape, Tensor, backward, mean_rows
from fsos.backbone import embed, init_backbone
from fsos.episodes import Episode, EpisodeConfig, sample_episode
from fsos.protonet import (
    ProtonetError,
    ThresholdBaseline,
    calibrate_threshold,
    embed_episode,
    episode_loss,
    pairwise_sq_distances,
    predict_closed,
    prototypes,
    scan_threshold,
)

from conftest import scored_episode


def test_prototypes_single_and_mean():
    protos = prototypes([[1.0, 3.0], [3.0, 5.0], [2.0, 2.0], [2.0, 2.0]], 2)
    assert np.array_equal(protos, [[2.0, 4.0], [2.0, 2.0]])
    assert np.array_equal(prototypes([[1.0, 3.0], [3.0, 5.0]], 1), [[2.0, 4.0]])


def test_prototypes_permutation_invariant():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(6, 4))
    p1 = prototypes(emb, 2)
    p2 = prototypes(np.vstack([emb[2::-1], emb[:2:-1]]), 2)
    assert np.array_equal(p1, p2)


@st.composite
def _support_stacks(draw):
    """(support stack [B, n * k, e], n): B 1..6, n 1..5, k 1..20, e 1..6 or
    64, from a small pool of floats with -0.0 and +-inf, so ties are common."""
    b, n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 20))
    e = draw(st.integers(1, 6) | st.just(64))
    pool = draw(st.lists(st.sampled_from((0.0, -0.0, np.inf, -np.inf, 1.0, -1.0))
                         | st.floats(allow_nan=False), min_size=1, max_size=6))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, len(pool), size=(b, n * k, e))
    return np.array(pool, dtype=np.float64)[picks], n


@given(_support_stacks())
@settings(max_examples=300, deadline=None)
def test_prototypes_of_a_stack_equal_one_mean_rows_per_episode(case):
    """A training block's one prototypes call over its episodes' support
    stack equals each episode's own taped mean_rows, bit for bit: both
    row_block_mean branches (the comparator network, and np.sort at e = 1)
    work per class group."""
    stack, n = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = prototypes(stack, n)
        want = np.stack([mean_rows(Tensor(support), groups=n).data for support in stack])
    assert got.shape == want.shape == (stack.shape[0], n, stack.shape[2])
    assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()


def test_prototypes_empty_class_errors():
    with pytest.raises(ProtonetError):
        prototypes(np.zeros((0, 3)), 1)
    with pytest.raises(ProtonetError):
        prototypes(np.zeros((5, 3)), 2)
    with pytest.raises(ProtonetError):
        prototypes(np.zeros((4, 3)), 0)


def test_closed_logits_hand_values():
    protos = prototypes([[0.0, 0.0], [10.0, 10.0]], 2)
    d = pairwise_sq_distances(np.zeros((1, 2)), protos)
    assert np.array_equal(-d, [[0.0, -200.0]])
    assert predict_closed(d, (1, 2)).tolist() == [1]


def test_closed_prediction_tie_breaks_to_lowest_id():
    # columns in episode order (8, 3); the query is equidistant from both
    d = pairwise_sq_distances(np.zeros((1, 2)), np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert d[0, 0] == d[0, 1]
    assert predict_closed(d, (8, 3)).tolist() == [3]
    assert predict_closed(d, (3, 8)).tolist() == [3]


def test_closed_prediction_exact_zero_ties_break_to_lowest_id():
    # the query is identical to two duplicate prototypes: the clamped kernel
    # puts both exactly 0 away, and the lower of their two ids wins
    rng = np.random.default_rng(12)
    query = 30.0 * rng.normal(size=(1, 6))
    protos = np.vstack([rng.normal(size=(1, 6)), query, rng.normal(size=(1, 6)), query])
    ids = np.array([4, 9, 2, 7])
    for _ in range(8):
        order = rng.permutation(4)
        d = pairwise_sq_distances(query, protos[order])
        assert np.count_nonzero(d == 0.0) == 2
        assert predict_closed(d, ids[order]).tolist() == [7]
        batched = pairwise_sq_distances(np.stack([query, query]), np.stack([protos[order]] * 2))
        assert predict_closed(batched, np.stack([ids[order]] * 2)).tolist() == [[7], [7]]


def test_closed_logits_translation_invariant():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(6, 4))
    q = rng.normal(size=(1, 4))
    shift = rng.normal(size=4)
    a = pairwise_sq_distances(q, prototypes(emb, 2))
    b = pairwise_sq_distances(q + shift, prototypes(emb + shift, 2))
    assert np.allclose(a, b, atol=1e-9)


def _toy_episode(rng, n=2, k=3, q=4, dim=16, sep=6.0):
    means = rng.normal(size=(n + 1, dim))
    means = means / np.linalg.norm(means, axis=1, keepdims=True) * sep
    sup = np.concatenate([means[i] + rng.normal(size=(k, dim)) for i in range(n)])
    known = [means[i] + rng.normal(size=(q, dim)) for i in range(n)]
    unknown = means[n] + rng.normal(size=(q, dim))
    return Episode(tuple(range(n)), sup, np.concatenate(known + [unknown]), q)


def test_episode_loss_equidistant_is_log_two(small_spec):
    params = init_backbone(small_spec, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=16)
    ep = Episode((0, 1), np.stack([x, x]), np.stack([x, x]), 1)
    with Tape():
        loss = episode_loss(embed_episode(partial(embed, params), ep), ep)
    assert abs(float(loss.data) - np.log(2.0)) < 1e-9


def test_episode_loss_requires_two_classes(small_spec):
    params = init_backbone(small_spec, seed=1)
    ep = Episode((0,), np.zeros((2, 16)), np.ones((2, 16)), 2)
    with pytest.raises(ProtonetError):
        episode_loss(embed_episode(partial(embed, params), ep), ep)


def test_episode_loss_nonnegative_and_trains(small_spec):
    params = init_backbone(small_spec, seed=3)
    rng = np.random.default_rng(3)
    ep = _toy_episode(rng)
    with Tape() as tape:
        loss = episode_loss(embed_episode(partial(embed, params), ep), ep)
    assert float(loss.data) >= 0.0
    backward(tape, loss)
    assert params.head["W"].grad is not None


def test_threshold_score_properties(small_spec):
    params = init_backbone(small_spec, seed=3)
    ep = _toy_episode(np.random.default_rng(4))
    scored = scored_episode(params, ep)
    assert np.array_equal(scored.nearest_distance, scored.distances.min(axis=2))
    assert np.all(scored.nearest_distance >= 0.0)
    # adding a class (prototype) cannot raise the min; the two episodes embed
    # different row counts, so allow for last-bit matmul differences
    k, known = len(ep.support) // ep.n, ep.n * ep.q
    one = scored_episode(params, Episode(ep.class_ids[:1], ep.support[:k],
                                         np.concatenate([ep.queries[: ep.q], ep.queries[known:]]),
                                         ep.q))
    assert np.all(scored.nearest_distance[0, : ep.q] <= one.nearest_distance[0, : ep.q] + 1e-9)


def test_scan_threshold_separable_and_single_pair():
    assert scan_threshold([0.0, 0.0], [1.0, 1.0]).tau == 0.5
    assert scan_threshold([0.2], [0.8]).tau == pytest.approx(0.5)


def test_scan_threshold_matched_distributions_is_half():
    # identically distributed scores: the calibrated tau generalizes to
    # balanced accuracy ~ 0.5 on fresh matched samples
    rng = np.random.default_rng(5)
    base = scan_threshold(np.abs(rng.normal(size=1000)), np.abs(rng.normal(size=1000)))
    ks, us = np.abs(rng.normal(size=4000)), np.abs(rng.normal(size=4000))
    bal = 0.5 * np.mean(ks <= base.tau) + 0.5 * np.mean(us > base.tau)
    assert abs(bal - 0.5) < 0.05


def test_threshold_baseline_validates_tau():
    with pytest.raises(ProtonetError):
        ThresholdBaseline(-1.0)
    with pytest.raises(ProtonetError):
        ThresholdBaseline(float("nan"))


def test_calibrate_threshold_needs_unknowns(small_spec, small_dataset):
    params = init_backbone(small_spec, seed=4)
    cfg = EpisodeConfig(n=2, k=3, q=5, n_unknown=0)
    eps = [sample_episode(small_dataset, small_dataset.split.meta_val, cfg,
                          np.random.default_rng(0))]
    with pytest.raises(ProtonetError):
        calibrate_threshold(scored_episode(params, ep) for ep in eps)
    with pytest.raises(ProtonetError):
        calibrate_threshold([])


def test_calibrate_threshold_on_episodes(small_spec, small_dataset):
    params = init_backbone(small_spec, seed=4)
    cfg = EpisodeConfig(n=1, k=3, q=5, n_unknown=1)
    eps = [
        sample_episode(small_dataset, small_dataset.split.meta_test, cfg,
                       np.random.default_rng([3, i]))
        for i in range(8)
    ]
    baseline = calibrate_threshold(scored_episode(params, ep) for ep in eps)
    assert baseline.tau >= 0.0


def test_pairwise_distance_dim_mismatch():
    with pytest.raises(ProtonetError):
        pairwise_sq_distances(np.zeros((2, 3)), np.zeros((2, 4)))


def test_pairwise_distance_refuses_unstacked_vectors():
    with pytest.raises(ProtonetError):
        pairwise_sq_distances(np.zeros(3), np.zeros((2, 3)))
    with pytest.raises(ProtonetError):
        pairwise_sq_distances(np.zeros((2, 3)), np.zeros(3))


def _scan_threshold_loop(known_scores, unknown_scores):
    """Reference: balanced accuracy at every midpoint, smallest best tau."""
    ks = np.asarray(known_scores, dtype=np.float64)
    us = np.asarray(unknown_scores, dtype=np.float64)
    uniq = np.unique(np.concatenate([ks, us]))
    if uniq.size == 1:
        return float(uniq[0])
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    best_tau, best_bal = None, -1.0
    for tau in mids:
        bal = 0.5 * np.mean(ks <= tau) + 0.5 * np.mean(us > tau)
        if bal > best_bal:
            best_tau, best_bal = float(tau), float(bal)
    return best_tau


def test_scan_threshold_matches_reference_loop():
    rng = np.random.default_rng(11)
    cases = [([3.0], [3.0]), ([2.5] * 4, [2.5] * 7), ([1.0], [0.5]), ([0.5], [1.0]),
             ([0.0] * 5, [0.0] * 3), ([0.0, 0.0, 1.0], [0.0, 2.0]), ([0.0, 0.7], [0.0] * 4)]
    for _ in range(100):
        nk, nu = rng.integers(1, 40, size=2)
        # scores are distances, so they are >= 0
        cases.append((np.abs(rng.normal(size=nk)), np.abs(rng.normal(0.5, 1.0, size=nu))))
        # heavy ties: few distinct values shared by both sides
        cases.append((rng.integers(0, 5, size=nk) / 2.0, rng.integers(0, 5, size=nu) / 2.0))
        # zero-heavy: the clamped kernel scores many queries exactly 0.0 on both sides
        known, unknown = np.abs(rng.normal(size=nk)), np.abs(rng.normal(0.5, 1.0, size=nu))
        known[rng.random(nk) < 0.7] = 0.0
        unknown[rng.random(nu) < 0.5] = 0.0
        cases.append((known, unknown))
    for known, unknown in cases:
        assert scan_threshold(known, unknown).tau == _scan_threshold_loop(known, unknown)


def test_embed_episode_records_support_prototypes_then_queries(small_spec):
    from fsos.autodiff import mean_rows
    from fsos.backbone import embed

    params = init_backbone(small_spec, seed=5)
    ep = _toy_episode(np.random.default_rng(6), n=3, k=2, q=4)
    with Tape() as shared:
        protos, queries = embed_episode(partial(embed, params), ep)
    with Tape() as manual:
        want_protos = mean_rows(embed(params, ep.support), groups=3)
        want_queries = embed(params, ep.queries[:12])
    assert [e.kind for e in shared.entries] == [e.kind for e in manual.entries]
    assert np.array_equal(protos.data, want_protos.data)
    assert np.array_equal(queries.data, want_queries.data)
    assert protos.data.shape == (3, small_spec.embed_dim)
