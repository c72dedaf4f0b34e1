"""Metrics for one-class and open-set evaluation.

Each query has a true label, a final predicted label (after any
known/unknown gating), and a real-valued known-ness score used for ranking.
UNKNOWN is a distinguished marker; class ids are non-negative integers.

The episode metrics (AKS, AUS, F1-open, binary F1, AUROC) take one operand
form: a (truth, pred, score) triple of [..., m] arrays, one episode of m
queries per row. Each reduces over the last axis and returns [...] values,
a scalar for one [m] row. They are integer counts and one division per
row, so each row's value is the same, bit for bit, however many rows are
scored together. aks_one_vs_rest takes one [m] row.

Conventions: precision/recall/F1 are 0 whenever their denominator is 0, and
AUROC counts tied pairs as half (Mann-Whitney form).
"""

import csv

import numpy as np

UNKNOWN = -1


class MetricError(ValueError):
    pass


def _arrays(triple):
    """(truth, pred, score) as int64, int64 and float64 arrays."""
    t, p, s = triple
    return (
        np.asarray(t, dtype=np.int64),
        np.asarray(p, dtype=np.int64),
        np.asarray(s, dtype=np.float64),
    )


def _f1(tp, fp, fn):
    """Row-wise F1 from integer counts; 0 where tp is 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = tp / (tp + fp)
        rec = tp / (tp + fn)
        f1 = 2.0 * prec * rec / (prec + rec)
    return np.where(tp > 0, f1, 0.0)[()]


def binary_f1(triple):
    """F1 of the known/unknown decision with known as the positive class."""
    t, p, _ = _arrays(triple)
    if t.shape[-1] == 0:
        raise MetricError("binary_f1 of an empty episode is undefined")
    pred_known = p != UNKNOWN
    true_known = t != UNKNOWN
    tp = np.sum(pred_known & true_known, axis=-1)
    fp = np.sum(pred_known & ~true_known, axis=-1)
    fn = np.sum(~pred_known & true_known, axis=-1)
    return _f1(tp, fp, fn)


def auroc(triple):
    """Probability a random known-truth query outscores a random
    unknown-truth query, ties counted half: (#greater + 0.5 * #equal) over
    the known x unknown pairs, counted exactly from each row's sorted scores
    (never NaN). Each run of equal scores counts as a whole, so the sort need
    not be stable: 63 against 190 us for a stable one at [40, 150]."""
    t, _, s = _arrays(triple)
    shape, m = t.shape[:-1], t.shape[-1]
    t, s = t.reshape(-1, m), s.reshape(-1, m)
    known = t != UNKNOWN
    nk, nu = known.sum(axis=1), (~known).sum(axis=1)
    if not (nk.all() and nu.all()):
        raise MetricError("auroc needs at least one known and one unknown query")
    order = np.argsort(s, axis=1)
    s = np.take_along_axis(s, order, axis=1)
    unknown = ~np.take_along_axis(known, order, axis=1)
    # equal scores form runs from sorted position first to last; for a known
    # score, #greater counts the unknown scores below its run and
    # #greater + #equal those up to the run's end
    pos = np.arange(m)
    edge = np.ones((s.shape[0], m + 1), dtype=bool)
    edge[:, 1:-1] = s[:, 1:] != s[:, :-1]
    first = np.maximum.accumulate(np.where(edge[:, :-1], pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(edge[:, 1:], pos, pos[-1])[:, ::-1], axis=1)[:, ::-1]
    upto = np.cumsum(unknown, axis=1)
    below = np.take_along_axis(upto - unknown, first, axis=1)
    at_most = np.take_along_axis(upto, last, axis=1)
    halves = np.sum(below + at_most, axis=1, where=~unknown)
    return (0.5 * halves / (nk * nu)).reshape(shape)[()]


def aks(triple):
    """Accuracy on known samples: gated-UNKNOWN predictions count as wrong."""
    t, p, _ = _arrays(triple)
    known = t != UNKNOWN
    nk = known.sum(axis=-1)
    if not nk.all():
        raise MetricError("aks needs at least one known-truth query")
    return np.sum(known & (t == p), axis=-1) / nk


def aks_one_vs_rest(triple):
    """One-vs-rest (TP+TN) / (TP+TN+FP+FN) summed over known classes, on
    one [m] row.

    The per-class true negatives dominate for larger class counts, which is
    why this variant is reported for comparison only.
    """
    t, p, _ = _arrays(triple)
    known = t != UNKNOWN
    if not known.any():
        raise MetricError("aks_one_vs_rest needs at least one known-truth query")
    tk, pk = t[known], p[known]
    classes = sorted(set(tk.tolist()) | (set(pk.tolist()) - {UNKNOWN}))
    total = 0
    for c in classes:
        tp = int(np.sum((tk == c) & (pk == c)))
        tn = int(np.sum((tk != c) & (pk != c)))
        total += tp + tn
    return total / (len(classes) * tk.size)


def aus(triple):
    """Accuracy on unknown samples: fraction of unknown-truth queries
    predicted UNKNOWN."""
    t, p, _ = _arrays(triple)
    unknown = t == UNKNOWN
    nu = unknown.sum(axis=-1)
    if not nu.all():
        raise MetricError("aus needs at least one unknown-truth query")
    return np.sum(unknown & (p == UNKNOWN), axis=-1) / nu


def normalized_accuracy(aks_value, aus_value):
    """0.5 * AKS + 0.5 * AUS."""
    return 0.5 * aks_value + 0.5 * aus_value


def f1_open(triple):
    """Micro-averaged open-set F1 over the known classes.

    Per class c: TP = known-truth c labeled c; FP = anything else labeled c
    (unknown-truth queries included); FN = known-truth c labeled anything
    else, UNKNOWN included. Unknown-truth queries therefore only ever count
    as false positives of the class they were labeled with.
    """
    t, p, _ = _arrays(triple)
    if t.shape[-1] == 0:
        raise MetricError("f1_open of an empty episode is undefined")
    known = t != UNKNOWN
    tp = np.sum(known & (t == p), axis=-1)
    fp = np.sum((p != UNKNOWN) & (p != t), axis=-1)
    fn = np.sum(known & (p != t), axis=-1)
    return _f1(tp, fp, fn)


# ---------------------------------------------------------------------------
# records CSV round trip: one row per query, tagged with its episode's row
# index in the (truth, pred, score) [M, m] triple

RECORD_HEADER = ["episode_id", "true_label", "predicted_label", "score"]


def write_records_csv(path, triple):
    """Write the [M, m] triple of M episodes, one episode at a time."""
    t, p, s = triple
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_HEADER)
        for e in range(len(t)):
            writer.writerows(zip([e] * len(t[e]), t[e].tolist(), p[e].tolist(),
                                 map(repr, s[e].tolist())))


def read_records_csv(path):
    """Read a records CSV back into its (truth, pred, score) [M, m] triple;
    its rows must hold episodes 0 .. M - 1 in order, m queries each."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != RECORD_HEADER:
            raise MetricError(f"{path}: unexpected header {header}")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    ids = table[:, 0]
    m = np.count_nonzero(ids == 0)
    if table.shape[1] != 4 or not m or ids.size % m or not np.array_equal(
        ids, np.arange(ids.size) // m
    ):
        raise MetricError(f"{path}: rows are not episodes 0 .. M - 1 of one query count")
    table = table.reshape(-1, m, 4)
    return table[..., 1].astype(np.int64), table[..., 2].astype(np.int64), table[..., 3].copy()
