"""Meta-BCE one-class head.

The head scores a query against a single class as sigmoid(-(d + t)), where d
is the squared Euclidean distance between the query and the class prototype
in a dedicated one-class feature space, and t is a learnable offset. The
one-class space is either the branch copy of the extractor's last block
("branch", the main method) or a learned dense projection of the main
embedding ("projected", the ablation variant that keeps the main branch).

Meta-training minimizes binary cross-entropy over every (query, episode
class) pair; negatives are the episode's other classes, so no background
categories are needed. The extractor stays frozen: training reads its
output from a per-run cache (backbone.SOURCE) and tapes only what it trains.
For n classes, a query is unknown when even its best-matching class rejects
it (episodes.max_prob_decision).
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, bce, scale_shift, sigmoid, squared_distance
from .protonet import MINUS_ONE, ZERO, bce_targets, pairwise_sq_distances

VARIANTS = ("branch", "projected")  # each the embedding space it reads


class MetaBceError(ValueError):
    pass


@dataclass
class MetaBceHead:
    t: Tensor
    variant: str = "branch"

    def copy(self):
        return MetaBceHead(Tensor(self.t.data.copy(), requires_grad=True), self.variant)


def init_head(variant="branch"):
    if variant not in VARIANTS:
        raise MetaBceError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return MetaBceHead(Tensor(0.0, requires_grad=True), variant)


def prob_known(head, queries, prototypes):
    """sigmoid(-(d + t)) [..., m, n] for query rows [..., m, e] against
    prototype rows [..., n, e], both in the head's one-class space."""
    d = pairwise_sq_distances(queries, prototypes)
    return sigmoid(Tensor(-(d + float(head.t.data)))).data


def episode_loss(head, inputs, episode):
    """Mean BCE over all (known query, episode class) pairs, with target 1
    exactly when the query belongs to the class. inputs are the episode's
    (prototypes, known-query embeddings) in the one-class space, as
    protonet.embed_episode makes them from partial(cache.embed,
    head.variant) of a RowEmbeddings cache in training."""
    if not episode.q:
        raise MetaBceError("episode has no known queries")
    protos, emb_q = inputs
    d = squared_distance(emb_q, protos)
    logits = scale_shift(d, MINUS_ONE, scale_shift(head.t, MINUS_ONE, ZERO))
    return bce(logits, Tensor(bce_targets(episode.n, episode.q)))


def trainable_tensors(head, params):
    """Parameters updated when training this head: the offset plus the branch
    block (branch variant) or the projection map (projected variant)."""
    if head.variant == "branch":
        return [head.t] + params.branch_tensors()
    return [head.t] + params.projection_tensors()


def head_to_group(head):
    """Checkpoint group ("mbce", params) plus head metadata."""
    return ("mbce", [("t", head.t.data)]), {"variant": head.variant}


def head_from_group(group_params, meta):
    params = dict(group_params)
    if "t" not in params:
        raise MetaBceError("mbce checkpoint group is missing parameter t")
    t = np.array(params["t"], dtype=np.float64)
    if t.ndim != 0:
        raise MetaBceError(f"mbce parameter t must be a scalar, got shape {t.shape}")
    head = init_head(meta.get("variant", "branch"))
    head.t = Tensor(t, requires_grad=True)
    return head
