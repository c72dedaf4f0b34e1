"""Prototypical-network closed-set classifier, the min-distance threshold
baseline used as the open-set comparison point, and the one per-episode
scoring routine every evaluator, validator and gate reads.

Embeddings, prototypes and distances are row stacks. All three episode
losses (ProtoNet, Meta-BCE, OCML) start with the taped step embed_episode.

ScoredEpisode runs the extractor's trunk once on an episode's support and
once on its stacked queries (known, then unknown); main, branch and
projected embeddings, their prototypes and the main-space distance matrix
are derived from those trunk features the first time a reader asks. Closed-set
logits are negative squared Euclidean distances to per-class prototypes;
argmin ties break toward the lowest class id. The threshold baseline scores a
query by its distance to the nearest prototype and accepts it as known when
that distance is at most tau.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import Tensor, mean_rows, row_block_mean, scale_shift, softmax_xent, squared_distance
from .backbone import embed, last_block, project, trunk_features


class ProtonetError(ValueError):
    pass


def prototypes(support_embeddings, n):
    """Per-class means [n, e] of a class-ordered [n * k, e] support stack."""
    emb = np.asarray(support_embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] == 0 or n < 1 or emb.shape[0] % n:
        raise ProtonetError(f"cannot split support embeddings {emb.shape} into {n} classes")
    return row_block_mean(emb, n)


def pairwise_sq_distances(queries, protos_matrix):
    """Squared Euclidean distances [m, n] between query rows [m, e] and
    prototype rows [n, e]."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or protos_matrix.ndim != 2 or q.shape[1] != protos_matrix.shape[1]:
        raise ProtonetError(
            f"need query rows [m, e] and prototype rows [n, e], got {q.shape} and "
            f"{protos_matrix.shape}"
        )
    diff = q[:, None, :] - protos_matrix[None, :, :]
    return np.einsum("mnd,mnd->mn", diff, diff)


def predict_closed(distances, class_ids):
    """Class id of the nearest prototype per query row; the columns of the
    [m, n] distances follow class_ids, and ties go to the lowest class id."""
    ids = np.asarray(class_ids)
    order = np.argsort(ids, kind="stable")
    return ids[order][np.argmin(distances[:, order], axis=1)]


class ScoredEpisode:
    """One episode embedded once; every derived quantity is computed on
    first use and shared by the closed-set classifier and the gates."""

    def __init__(self, params, episode):
        self.params = params
        self.episode = episode
        self.n = episode.n
        dim = episode.support.shape[-1]
        queries = np.vstack(
            [episode.query_known.reshape(-1, dim), episode.query_unknown.reshape(-1, dim)]
        )
        self.n_known = episode.n * episode.q
        self._features = (
            trunk_features(params, episode.support.reshape(-1, dim)),
            trunk_features(params, queries),
        )
        self._spaces = {}
        self._prototypes = {}

    def embeddings(self, space="main"):
        """(support [n * k, e], queries [m, e]) in the "main", "branch" or
        "projected" space."""
        if space not in self._spaces:
            if space == "projected":
                pair = tuple(project(self.params, e).data for e in self.embeddings("main"))
            else:
                block = {"main": self.params.head, "branch": self.params.branch}[space]
                pair = tuple(last_block(self.params, f, block).data for f in self._features)
            self._spaces[space] = pair
        return self._spaces[space]

    def prototypes(self, space="main"):
        """Per-class prototypes [n, e] in the given space, episode class order."""
        if space not in self._prototypes:
            self._prototypes[space] = prototypes(self.embeddings(space)[0], self.n)
        return self._prototypes[space]

    @cached_property
    def distances(self):
        """Main-space squared distances [m, n]; closed logits are their negation."""
        return pairwise_sq_distances(self.embeddings()[1], self.prototypes())

    @cached_property
    def nearest_distance(self):
        """Threshold-baseline score per query: distance to the nearest prototype."""
        return self.distances.min(axis=1)

    @cached_property
    def closed_predictions(self):
        return predict_closed(self.distances, self.episode.known_class_ids)


def embed_episode(embed_fn, params, episode):
    """The taped step every episode loss starts with: support prototypes
    [n, e] and known-query embeddings [n * q, e], both through
    embed_fn(params, rows). Records the support embedding, then the
    prototypes, then the query embedding."""
    dim = episode.support.shape[-1]
    support = embed_fn(params, episode.support.reshape(-1, dim))
    protos = mean_rows(support, groups=episode.n)
    queries = embed_fn(params, episode.query_known.reshape(-1, dim))
    return protos, queries


def episode_loss(params, episode):
    """Mean softmax cross-entropy of closed logits over the known queries."""
    n, q = episode.n, episode.q
    if n < 2:
        raise ProtonetError(f"closed-set episode loss needs n >= 2 classes, got {n}")
    protos, emb_q = embed_episode(embed, params, episode)
    d = squared_distance(emb_q, protos)
    logits = scale_shift(d, Tensor(-1.0), Tensor(0.0))
    labels = Tensor(np.repeat(np.arange(n), q).astype(np.float64))
    return softmax_xent(logits, labels)


@dataclass(frozen=True)
class ThresholdBaseline:
    tau: float

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ProtonetError(f"tau must be finite and >= 0, got {self.tau}")


def scan_threshold(known_scores, unknown_scores):
    """Pick tau maximizing balanced accuracy over pooled validation scores.

    Candidates are the midpoints of consecutive sorted unique scores; the
    smallest maximizing tau wins. A query counts known when score <= tau.
    """
    ks = np.asarray(known_scores, dtype=np.float64)
    us = np.asarray(unknown_scores, dtype=np.float64)
    if ks.size == 0:
        raise ProtonetError("threshold calibration needs known-query scores")
    if us.size == 0:
        raise ProtonetError("threshold calibration needs unknown-query scores")
    uniq = np.unique(np.concatenate([ks, us]))
    if uniq.size == 1:
        return ThresholdBaseline(float(uniq[0]))
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    # sorted counts: known scores <= tau, and unknown scores > tau, per midpoint
    known_in = np.searchsorted(np.sort(ks), mids, side="right") / ks.size
    unknown_out = (us.size - np.searchsorted(np.sort(us), mids, side="right")) / us.size
    balanced = 0.5 * known_in + 0.5 * unknown_out
    return ThresholdBaseline(float(mids[np.argmax(balanced)]))


def calibrate_threshold(params, episodes):
    """Calibrate tau on validation episodes in the main embedding space."""
    known_scores, unknown_scores = [], []
    for ep in episodes:
        scored = ScoredEpisode(params, ep)
        known_scores.append(scored.nearest_distance[: scored.n_known])
        if ep.n_U:
            unknown_scores.append(scored.nearest_distance[scored.n_known :])
    if not known_scores:
        raise ProtonetError("threshold calibration needs at least one episode")
    if not unknown_scores:
        raise ProtonetError("threshold calibration needs episodes with unknown queries")
    return scan_threshold(np.concatenate(known_scores), np.concatenate(unknown_scores))
