"""Metrics for one-class and open-set evaluation.

Records carry a true label, a final predicted label (after any known/unknown
gating), and a real-valued known-ness score used for ranking. UNKNOWN is a
distinguished marker; class ids are non-negative integers.

The episode metrics (AKS, AUS, F1-open, binary F1, AUROC) take records, or
a (true, pred, score) triple of [m] arrays, and return a float; given a
triple of [B, m] arrays they score each row and return [B] values. They are
integer counts and one division per row, so each row's value is the same,
bit for bit, however many rows are scored together.

Conventions: precision/recall/F1 are 0 whenever their denominator is 0, and
AUROC counts tied pairs as half (Mann-Whitney form).
"""

import csv
from dataclasses import dataclass

import numpy as np

UNKNOWN = -1


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class PredictionRecord:
    true_label: int
    predicted_label: int
    score: float


def records_from_arrays(true_labels, predicted_labels, scores):
    return [
        PredictionRecord(int(t), int(p), float(s))
        for t, p, s in zip(true_labels, predicted_labels, scores)
    ]


def _arrays(records):
    """Records -> (true, pred, score) arrays; a pre-built triple passes through."""
    if isinstance(records, tuple) and len(records) == 3:
        t, p, s = records
        return (
            np.asarray(t, dtype=np.int64),
            np.asarray(p, dtype=np.int64),
            np.asarray(s, dtype=np.float64),
        )
    t = np.array([r.true_label for r in records], dtype=np.int64)
    p = np.array([r.predicted_label for r in records], dtype=np.int64)
    s = np.array([r.score for r in records], dtype=np.float64)
    return t, p, s


def accuracy(true_labels, predicted_labels):
    """Fraction of correct labels over known-truth closed-set predictions."""
    t = np.asarray(true_labels)
    p = np.asarray(predicted_labels)
    if t.size == 0:
        raise MetricError("accuracy of an empty record set is undefined")
    if t.shape != p.shape:
        raise MetricError(f"{t.size} truths vs {p.size} predictions")
    return float(np.mean(t == p))


def _rows(records):
    """(true, pred, score) as [B, m] arrays, plus whether the input was a
    single row to be returned as a float."""
    t, p, s = _arrays(records)
    return np.atleast_2d(t), np.atleast_2d(p), np.atleast_2d(s), t.ndim == 1


def _per_row(values, single):
    return float(values[0]) if single else values


def _f1(tp, fp, fn):
    """Row-wise F1 from integer counts; 0 where tp is 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = tp / (tp + fp)
        rec = tp / (tp + fn)
        f1 = 2.0 * prec * rec / (prec + rec)
    return np.where(tp > 0, f1, 0.0)


def binary_f1(records):
    """F1 of the known/unknown decision with known as the positive class."""
    t, p, _, single = _rows(records)
    if t.shape[1] == 0:
        raise MetricError("binary_f1 of an empty record set is undefined")
    pred_known = p != UNKNOWN
    true_known = t != UNKNOWN
    tp = np.sum(pred_known & true_known, axis=1)
    fp = np.sum(pred_known & ~true_known, axis=1)
    fn = np.sum(~pred_known & true_known, axis=1)
    return _per_row(_f1(tp, fp, fn), single)


def auroc(records):
    """Probability a random known-truth record outscores a random
    unknown-truth record, ties counted half: (#greater + 0.5 * #equal) over
    the known x unknown pairs, counted exactly from each row's sorted scores."""
    t, _, s, single = _rows(records)
    known = t != UNKNOWN
    nk, nu = known.sum(axis=1), (~known).sum(axis=1)
    if not (nk.all() and nu.all()):
        raise MetricError("auroc needs at least one known and one unknown record")
    order = np.argsort(s, axis=1, kind="stable")
    s = np.take_along_axis(s, order, axis=1)
    unknown = ~np.take_along_axis(known, order, axis=1)
    # equal scores form runs from sorted position first to last; for a known
    # score, #greater counts the unknown scores below its run and
    # #greater + #equal those up to the run's end
    pos = np.arange(s.shape[1])
    edge = np.ones((s.shape[0], s.shape[1] + 1), dtype=bool)
    edge[:, 1:-1] = s[:, 1:] != s[:, :-1]
    first = np.maximum.accumulate(np.where(edge[:, :-1], pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(edge[:, 1:], pos, pos[-1])[:, ::-1], axis=1)[:, ::-1]
    upto = np.cumsum(unknown, axis=1)
    below = np.take_along_axis(upto - unknown, first, axis=1)
    at_most = np.take_along_axis(upto, last, axis=1)
    halves = np.sum(below + at_most, axis=1, where=~unknown)
    return _per_row(0.5 * halves / (nk * nu), single)


def aks(records):
    """Accuracy on known samples: gated-UNKNOWN predictions count as wrong."""
    t, p, _, single = _rows(records)
    known = t != UNKNOWN
    nk = known.sum(axis=1)
    if not nk.all():
        raise MetricError("aks needs at least one known-truth record")
    return _per_row(np.sum(known & (t == p), axis=1) / nk, single)


def aks_one_vs_rest(records):
    """One-vs-rest (TP+TN) / (TP+TN+FP+FN) summed over known classes.

    The per-class true negatives dominate for larger class counts, which is
    why this variant is reported for comparison only.
    """
    t, p, _ = _arrays(records)
    known = t != UNKNOWN
    if not known.any():
        raise MetricError("aks_one_vs_rest needs at least one known-truth record")
    tk, pk = t[known], p[known]
    classes = sorted(set(tk.tolist()) | (set(pk.tolist()) - {UNKNOWN}))
    total = 0
    for c in classes:
        tp = int(np.sum((tk == c) & (pk == c)))
        tn = int(np.sum((tk != c) & (pk != c)))
        total += tp + tn
    return total / (len(classes) * tk.size)


def aus(records):
    """Accuracy on unknown samples: fraction of unknown-truth records
    predicted UNKNOWN."""
    t, p, _, single = _rows(records)
    unknown = t == UNKNOWN
    nu = unknown.sum(axis=1)
    if not nu.all():
        raise MetricError("aus needs at least one unknown-truth record")
    return _per_row(np.sum(unknown & (p == UNKNOWN), axis=1) / nu, single)


def normalized_accuracy(aks_value, aus_value, weight=0.5):
    """weight * AKS + (1 - weight) * AUS."""
    if not 0.0 <= weight <= 1.0:
        raise MetricError(f"weight must be in [0, 1], got {weight}")
    return weight * aks_value + (1.0 - weight) * aus_value


def f1_open(records):
    """Micro-averaged open-set F1 over the known classes.

    Per class c: TP = known-truth c labeled c; FP = anything else labeled c
    (unknown-truth records included); FN = known-truth c labeled anything
    else, UNKNOWN included. Unknown-truth records therefore only ever count
    as false positives of the class they were labeled with.
    """
    t, p, _, single = _rows(records)
    if t.shape[1] == 0:
        raise MetricError("f1_open of an empty record set is undefined")
    known = t != UNKNOWN
    tp = np.sum(known & (t == p), axis=1)
    fp = np.sum((p != UNKNOWN) & (p != t), axis=1)
    fn = np.sum(known & (p != t), axis=1)
    return _per_row(_f1(tp, fp, fn), single)


# ---------------------------------------------------------------------------
# record CSV round trip

RECORD_HEADER = ["true_label", "predicted_label", "score"]


def write_records_csv(path, records, episode_ids=None):
    """Write records; with episode_ids an extra leading column tags each row."""
    recs = list(records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if episode_ids is None:
            writer.writerow(RECORD_HEADER)
            for r in recs:
                writer.writerow([r.true_label, r.predicted_label, repr(r.score)])
        else:
            writer.writerow(["episode_id"] + RECORD_HEADER)
            for e, r in zip(episode_ids, recs):
                writer.writerow([e, r.true_label, r.predicted_label, repr(r.score)])


def read_records_csv(path):
    """Read a record CSV (with or without the episode_id column)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MetricError(f"{path}: empty record file")
        if header == RECORD_HEADER:
            offset = 0
        elif header == ["episode_id"] + RECORD_HEADER:
            offset = 1
        else:
            raise MetricError(f"{path}: unexpected header {header}")
        records = []
        for row in reader:
            records.append(
                PredictionRecord(int(row[offset]), int(row[offset + 1]), float(row[offset + 2]))
            )
    return records
