import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsos.metrics import (
    UNKNOWN,
    MetricError,
    aks,
    aks_one_vs_rest,
    auroc,
    aus,
    binary_f1,
    f1_open,
    normalized_accuracy,
    read_records_csv,
    write_records_csv,
)

# ---------------------------------------------------------------------------
# brute-force oracle twins


def auroc_oracle(triple):
    """O(n^2) pair count: wins + half-ties over known x unknown pairs."""
    known = [s for t, p, s in zip(*triple) if t != UNKNOWN]
    unknown = [s for t, p, s in zip(*triple) if t == UNKNOWN]
    total = 0.0
    for ks in known:
        for us in unknown:
            if ks > us:
                total += 1.0
            elif ks == us:
                total += 0.5
    return total / (len(known) * len(unknown))


def f1_open_oracle(triple):
    """Per-class confusion dictionaries, micro-averaged."""
    classes = sorted(
        {t for t, p, s in zip(*triple) if t != UNKNOWN}
        | {p for t, p, s in zip(*triple) if p != UNKNOWN}
    )
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for t, p, s in zip(*triple):
        for c in classes:
            if t == c and p == c:
                tp[c] += 1
            if p == c and t != c:
                fp[c] += 1
            if t == c and p != c:
                fn[c] += 1
    stp, sfp, sfn = sum(tp.values()), sum(fp.values()), sum(fn.values())
    if stp == 0:
        return 0.0
    prec = stp / (stp + sfp)
    rec = stp / (stp + sfn)
    return 2 * prec * rec / (prec + rec)


def aks_oracle(triple):
    known = [(t, p) for t, p, s in zip(*triple) if t != UNKNOWN]
    return sum(1 for t, p in known if p == t) / len(known)


def random_records(seed):
    rng = np.random.default_rng((31337, seed))
    n_classes = int(rng.integers(1, 9))
    size = int(rng.integers(2, 201))
    classes = list(range(n_classes))
    true, pred, score = [], [], []
    has_known = has_unknown = False
    for i in range(size):
        t = UNKNOWN if rng.random() < 0.35 else int(rng.choice(classes))
        p = UNKNOWN if rng.random() < 0.3 else int(rng.choice(classes))
        # quantized scores force plenty of ties
        s = float(np.round(rng.normal(), 1))
        true.append(t)
        pred.append(p)
        score.append(s)
        has_known |= t != UNKNOWN
        has_unknown |= t == UNKNOWN
    if not has_known:
        true[0] = 0
    if not has_unknown:
        true[-1] = UNKNOWN
    return np.array(true), np.array(pred), np.array(score)


@pytest.mark.parametrize("seed", range(25))
def test_oracle_agreement_sampled(seed):
    records = random_records(seed)
    assert abs(auroc(records) - auroc_oracle(records)) <= 1e-12
    assert abs(f1_open(records) - f1_open_oracle(records)) <= 1e-12
    assert abs(aks(records) - aks_oracle(records)) <= 1e-12


# ---------------------------------------------------------------------------
# the scalar metrics as they were before the row-wise forms, kept as
# references: one (true, pred, score) row of 1-d arrays at a time


def _scalar_binary_f1(t, p, s):
    pred_known, true_known = p != UNKNOWN, t != UNKNOWN
    tp = int(np.sum(pred_known & true_known))
    fp = int(np.sum(pred_known & ~true_known))
    fn = int(np.sum(~pred_known & true_known))
    if tp == 0:
        return 0.0
    prec, rec = tp / (tp + fp), tp / (tp + fn)
    return 2.0 * prec * rec / (prec + rec)


def _scalar_auroc(t, p, s):
    known = t != UNKNOWN
    ks, us = s[known], s[~known]
    pooled = np.concatenate([ks, us])
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = (upper - counts + 1 + upper) / 2.0
    rank_sum_known = float(avg_rank[inverse[: ks.size]].sum())
    nk, nu = ks.size, us.size
    return (rank_sum_known - nk * (nk + 1) / 2.0) / (nk * nu)


def _scalar_aks(t, p, s):
    known = t != UNKNOWN
    return float(np.mean(t[known] == p[known]))


def _scalar_aus(t, p, s):
    return float(np.mean(p[t == UNKNOWN] == UNKNOWN))


def _scalar_f1_open(t, p, s):
    known = t != UNKNOWN
    tp = int(np.sum(known & (t == p)))
    fp = int(np.sum((p != UNKNOWN) & (p != t)))
    fn = int(np.sum(known & (p != t)))
    if tp == 0:
        return 0.0
    prec, rec = tp / (tp + fp), tp / (tp + fn)
    return 2.0 * prec * rec / (prec + rec)


ROW_WISE = ((aks, _scalar_aks), (aus, _scalar_aus), (f1_open, _scalar_f1_open),
            (binary_f1, _scalar_binary_f1), (auroc, _scalar_auroc))


@given(seed=st.integers(0, 10**6), rows=st.integers(1, 6), m=st.integers(2, 40),
       decimals=st.sampled_from([None, 0, 1, 3]), mode=st.sampled_from(
           ["mixed", "one_known", "one_unknown", "no_true_positive"]))
@settings(max_examples=150, deadline=None)
def test_row_wise_metrics_equal_scalar_references_bit_for_bit(seed, rows, m, decimals, mode):
    rng = np.random.default_rng(seed)
    t = np.where(rng.random((rows, m)) < 0.4, UNKNOWN, rng.integers(0, 4, (rows, m)))
    t[:, 0], t[:, 1] = rng.integers(0, 4, rows), UNKNOWN  # a known and an unknown per row
    if mode == "one_known":
        t[:, 2:] = UNKNOWN
    elif mode == "one_unknown":
        t[:, 2:] = np.where(t[:, 2:] == UNKNOWN, 0, t[:, 2:])
    p = np.where(rng.random((rows, m)) < 0.3, UNKNOWN, rng.integers(0, 4, (rows, m)))
    if mode == "no_true_positive":
        p = np.where(t == UNKNOWN, rng.integers(0, 4, (rows, m)), UNKNOWN)
    # heavy ties: constant scores, or scores rounded to few digits
    s = np.zeros((rows, m)) if decimals is None else np.round(rng.normal(size=(rows, m)), decimals)
    for fn, reference in ROW_WISE:
        want = [reference(t[r], p[r], s[r]) for r in range(rows)]
        got = fn((t, p, s))
        assert got.shape == (rows,)
        assert got.tolist() == want, fn.__name__
        assert [fn((t[r], p[r], s[r])) for r in range(rows)] == want, fn.__name__
    if mode == "no_true_positive":
        assert f1_open((t, p, s)).tolist() == binary_f1((t, p, s)).tolist() == [0.0] * rows


# ---------------------------------------------------------------------------
# spot values


def test_binary_f1_spot_values():
    perfect = ([0, 0, UNKNOWN, UNKNOWN], [0, 0, UNKNOWN, UNKNOWN], [0] * 4)
    assert binary_f1(perfect) == 1.0
    none_pred = ([0, UNKNOWN], [UNKNOWN, UNKNOWN], [0, 0])
    assert binary_f1(none_pred) == 0.0
    # TP=2, FP=1, FN=1 -> P=R=2/3
    recs = ([0, 0, UNKNOWN, 0], [0, 0, 0, UNKNOWN], [0] * 4)
    assert binary_f1(recs) == pytest.approx(2 / 3)


def test_auroc_spot_values():
    recs = ([0, 0, UNKNOWN, UNKNOWN], [0, 0, UNKNOWN, UNKNOWN], [0.9, 0.5, 0.5, 0.1])
    assert auroc(recs) == pytest.approx(0.875)
    separated = ([0, UNKNOWN], [0, UNKNOWN], [1.0, 0.0])
    assert auroc(separated) == 1.0
    ties = ([0, 0, UNKNOWN], [0, 0, UNKNOWN], [0.5] * 3)
    assert auroc(ties) == 0.5
    with pytest.raises(MetricError):
        auroc(([0, 1], [0, 1], [0.5, 0.5]))


def test_auroc_role_swap_sums_to_one():
    for seed in range(10):
        recs = random_records(seed)
        t, p, s = recs
        swapped = (np.where(t != UNKNOWN, UNKNOWN, 0), p, s)
        assert abs(auroc(recs) + auroc(swapped) - 1.0) < 1e-12


def test_aks_spot_values():
    recs = ([1, 2, 2, 2, 3], [1, 1, UNKNOWN, 2, 3], np.zeros(5))
    assert aks(recs) == pytest.approx(3 / 5)
    all_unknown = ([1, 2], [UNKNOWN, UNKNOWN], [0, 0])
    assert aks(all_unknown) == 0.0
    perfect = ([1, 2], [1, 2], [0, 0])
    assert aks(perfect) == 1.0


def test_aks_one_vs_rest_values():
    perfect = ([0, 1], [0, 1], [0, 0])
    assert aks_one_vs_rest(perfect) == 1.0
    # 3-class consistent permutation: plain accuracy 0, one-vs-rest form counts TNs
    perm = ([0, 1, 2], [1, 2, 0], [0, 0, 0])
    assert aks(perm) == 0.0
    assert aks_one_vs_rest(perm) == pytest.approx(3 / 9)
    single = ([4, 4, 4], [4, UNKNOWN, 4], [0, 0, 0])
    assert aks_one_vs_rest(single) == pytest.approx(2 / 3)


def test_aus_spot_values():
    recs = ([UNKNOWN, UNKNOWN, UNKNOWN], [UNKNOWN, 2, UNKNOWN], [0, 0, 0])
    assert aus(recs) == pytest.approx(2 / 3)
    assert aus(([UNKNOWN], [3], [0])) == 0.0
    assert aus(([UNKNOWN], [UNKNOWN], [0])) == 1.0
    with pytest.raises(MetricError):
        aus(([0], [0], [0]))


def test_normalized_accuracy_formula():
    assert abs(normalized_accuracy(0.6, 2 / 3) - 0.6333333333333333) < 1e-9
    assert normalized_accuracy(0.7, 0.7) == pytest.approx(0.7)


def test_f1_open_spot_values():
    # two known classes plus unknowns: TP=3, FP=2, FN=2
    true = [0, 0, 1, 1, 1, UNKNOWN, UNKNOWN]
    pred = [0, 1, 1, 1, UNKNOWN, 0, UNKNOWN]
    recs = (true, pred, np.zeros(7))
    assert f1_open(recs) == pytest.approx(0.6)
    perfect = ([0, 1, UNKNOWN], [0, 1, UNKNOWN], np.zeros(3))
    assert f1_open(perfect) == 1.0
    rejected = ([0, UNKNOWN], [UNKNOWN, UNKNOWN], np.zeros(2))
    assert f1_open(rejected) == 0.0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_class_relabeling_invariance(seed):
    records = random_records(seed % 40)
    rng = np.random.default_rng(seed)
    t, p, s = records
    classes = sorted(set(t[t != UNKNOWN].tolist()) | set(p[p != UNKNOWN].tolist()))
    perm = {c: int(p) for c, p in zip(classes, rng.permutation(len(classes)))}
    perm[UNKNOWN] = UNKNOWN
    relabeled = ([perm[c] for c in t.tolist()], [perm[c] for c in p.tolist()], s)
    for fn in (aks, aks_one_vs_rest, aus, f1_open, binary_f1, auroc):
        assert fn(records) == pytest.approx(fn(relabeled), abs=1e-12)


def test_metric_ranges_and_na_betweenness():
    for seed in range(15):
        records = random_records(seed)
        a, u = aks(records), aus(records)
        na = normalized_accuracy(a, u)
        for v in (a, u, na, f1_open(records), auroc(records), binary_f1(records)):
            assert 0.0 <= v <= 1.0
        assert min(a, u) - 1e-12 <= na <= max(a, u) + 1e-12


def test_records_csv_round_trip(tmp_path):
    t, p, s = random_records(3)
    m = t.size // 2 * 2
    records = tuple(a[:m].reshape(2, -1) for a in (t, p, s))
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    back = read_records_csv(path)
    for got, want in zip(back, records):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    lines = path.read_text().splitlines()
    assert lines[0] == "episode_id,true_label,predicted_label,score"
    assert [line.split(",")[0] for line in lines[1:]] == ["0"] * (m // 2) + ["1"] * (m // 2)
