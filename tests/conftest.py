import numpy as np
import pytest

import fsos.autodiff as ad
from fsos.autodiff import Tensor
from fsos.backbone import BackboneSpec, init_backbone
from fsos.data import SyntheticSpec, generate_synthetic
from fsos.protonet import RowEmbeddings, ScoredChunk


@pytest.fixture(scope="session")
def small_dataset():
    """12 classes x 30 examples in 16 dims; splits 7/2/3."""
    return generate_synthetic(
        SyntheticSpec(num_classes=12, examples_per_class=30, dim=16, separation=8.0, seed=5)
    )


@pytest.fixture(scope="session")
def small_spec():
    return BackboneSpec("vector", (16,), (("dense", 24), ("dense", 24)))


@pytest.fixture()
def small_backbone(small_spec):
    return init_backbone(small_spec, seed=11)


def scored_episode(params, ep, spaces=("main",)):
    """One Episode of gathered rows scored as a ScoredChunk of one, through
    a cache of the episode's own rows: its support, then its queries."""
    rows = np.concatenate([ep.support, ep.queries])
    s = len(ep.support)
    cache = RowEmbeddings(params, rows, spaces)
    return ScoredChunk(cache, np.array([ep.class_ids]), np.arange(s)[None],
                       np.arange(s, len(rows))[None], ep.q, step=1)


# ---------------------------------------------------------------------------
# random compositions for finite-difference gradient checking
#
# Central differences are only valid away from relu kinks and max-pool
# argmax ties, so candidate compositions are resampled (deterministically)
# until every kink has a comfortable margin.

_MARGIN = 1e-3


def _conv_forward(img, kernel, bias):
    c, h, w = img.shape
    oc = kernel.shape[0]
    xp = np.pad(img, ((0, 0), (1, 1), (1, 1)))
    conv = np.zeros((oc, h, w))
    for di in range(3):
        for dj in range(3):
            conv += np.einsum("oc,chw->ohw", kernel[:, :, di, dj], xp[:, di : di + h, dj : dj + w])
    return conv + bias[:, None, None]


def _conv_margins_ok(img, kernel, bias):
    conv = _conv_forward(img, kernel, bias)
    if np.min(np.abs(conv)) < _MARGIN:
        return False
    act = np.maximum(conv, 0.0)
    oc, h, w = act.shape
    windows = act.reshape(oc, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
    top2 = np.sort(windows, axis=1)[:, -2:]
    gaps = top2[:, 1] - top2[:, 0]
    positive_top = top2[:, 1] > 0
    return bool(np.all(gaps[positive_top] > _MARGIN))


def _dense_margins_ok(x, w, b):
    pre = x @ w + b
    return bool(np.min(np.abs(pre)) > _MARGIN)


def random_composition(seed):
    """Seeded chain touching every primitive kind, safe for h=1e-5 central
    differences. Returns (builder, point) for gradient_check."""
    for attempt in range(64):
        rng = np.random.default_rng((987, seed, attempt))
        n = 4 + 2 * int(rng.integers(2))  # even, grouped mean splits in two
        d, e = 3 + int(rng.integers(3)), 4
        x = rng.normal(size=(n, d))
        img = rng.normal(size=(2, 4, 4)) * 2.0
        labels = rng.integers(0, 2, size=n).astype(float)
        point = [
            rng.normal(size=(d, e)) * 0.6,
            rng.normal(size=e) * 0.2,
            rng.normal(size=(2, 2, 3, 3)) * 0.4,
            rng.normal(size=2) * 0.2,
            1.0 + rng.normal(size=2) * 0.1,
            rng.normal(size=2) * 0.1,
            np.array(rng.normal() * 0.3),
        ]
        if not _dense_margins_ok(x, point[0], point[1]):
            continue
        if not _conv_margins_ok(img, point[2], point[3]):
            continue

        def build(ps, x=x, img=img, labels=labels, n=n):
            h = ad.relu(ad.affine(Tensor(x), ps[0], ps[1]))
            protos = ad.mean_rows(h, groups=2)
            dmat = ad.squared_distance(h, protos)
            logits = ad.scale_shift(dmat, Tensor(-1.0), ps[6])
            loss_a = ad.bce(logits, Tensor(np.tile(labels[:, None], (1, 2))))
            conv = ad.conv3x3_pool(Tensor(img[None]), ps[2], ps[3])
            conv = ad.scale_shift(conv, ps[4], ps[5])
            flat = ad.reshape(conv, (1, 8))
            probs = ad.sigmoid(flat)
            loss_b = ad.reshape(ad.dot(probs, probs), ())
            pair = ad.dot(protos, protos)
            loss_c = ad.softmax_xent(pair, Tensor([0.0, 1.0]))
            combo = ad.scale_shift(loss_b, Tensor(1.0), loss_a)
            return ad.scale_shift(loss_c, Tensor(1.0), combo)

        return build, point
    raise RuntimeError(f"no margin-safe composition found for seed {seed}")
