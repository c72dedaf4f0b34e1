"""The scoring chunk's and the training step's fast numpy forms against the
forms they replaced, bit for bit.

Each oracle below is the earlier form of a routine, kept verbatim: the
argsort / take_along_axis closed prediction, .min and .max along the class
axis, the "...mn" einsum output order of the distance kernel's cross term,
AUROC over a stable sort, the mean binary cross-entropy's ndarray.mean and
its backward's two 1.0 + e sums and two divisions, scale_shift's (1,) * ndim
and [1, c, 1, 1] broadcast shapes and ndarray.sum, and squared_distance's
backward as one expression per operand. Inputs are drawn from each
routine's real domain: distances are clamped at +0.0 and never -0.0, and
probabilities are sigmoid outputs clipped into [nextafter(0, 1),
nextafter(1, 0)]. Outside it a fold and numpy's reduce may pick different
signs of a zero result.

CI also runs this file with numpy's dispatch held to X86_V3
(NPY_DISABLE_CPU_FEATURES), so the identities hold without AVX512 kernels.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fsos.autodiff as ad
from fsos.episodes import max_prob_decision
from fsos.metrics import UNKNOWN, auroc
from fsos.protonet import ScoredChunk, predict_closed

_LO, _HI = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _argsort_predict_closed(distances, class_ids):
    ids = np.asarray(class_ids)
    order = np.argsort(ids, axis=-1, kind="stable")
    nearest = np.argmin(np.take_along_axis(distances, order[..., None, :], axis=-1), axis=-1)
    return np.take_along_axis(np.take_along_axis(ids, order, axis=-1), nearest, axis=-1)


def _gram_sq_distances(a, b):
    na, nb = (np.einsum("...id,...id->...i", x, x) for x in (a, b))
    out = (na[..., :, None] + nb[..., None, :]) - 2.0 * np.einsum("...md,...nd->...mn", a, b)
    return np.maximum(out, 0.0, out=out)


def _stable_auroc(triple):
    t, _, s = (np.asarray(x) for x in triple)
    shape, m = t.shape[:-1], t.shape[-1]
    t, s = t.reshape(-1, m), s.reshape(-1, m).astype(np.float64)
    known = t != UNKNOWN
    nk, nu = known.sum(axis=1), (~known).sum(axis=1)
    order = np.argsort(s, axis=1, kind="stable")
    s = np.take_along_axis(s, order, axis=1)
    unknown = ~np.take_along_axis(known, order, axis=1)
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


@st.composite
def _class_axis(draw, values):
    """[..., m, n] values of an elements strategy, 2-D or batched, n = 1 included."""
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    flat = draw(st.lists(values, min_size=int(np.prod(lead)) * m * n,
                         max_size=int(np.prod(lead)) * m * n))
    return np.array(flat, dtype=np.float64).reshape(lead + (m, n))


# distances: exact zeros and a few repeated values force ties
_DISTANCES = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 7.5]),
                       st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True))
# probabilities: the clip bounds, 0.5 and a few repeated values force ties
_PROBS = st.one_of(st.sampled_from([_LO, _HI, 0.5, 0.25]),
                   st.floats(min_value=_LO, max_value=_HI))


@given(_class_axis(_DISTANCES), st.data())
@settings(max_examples=300, deadline=None)
def test_predict_closed_is_the_argsort_form(distances, data):
    assert not np.signbit(distances).any()
    lead, n = distances.shape[:-2], distances.shape[-1]
    ids = np.array([data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
                    for _ in range(int(np.prod(lead)))], dtype=np.int64).reshape(lead + (n,))
    assert _same_bits(predict_closed(distances, ids), _argsort_predict_closed(distances, ids))


@given(_class_axis(_DISTANCES))
@settings(max_examples=300, deadline=None)
def test_nearest_distance_is_the_min_over_classes(distances):
    assert not np.signbit(distances).any()
    chunk = SimpleNamespace(distances=distances)
    assert _same_bits(ScoredChunk.nearest_distance.func(chunk), distances.min(axis=-1))


@given(_class_axis(_PROBS))
@settings(max_examples=300, deadline=None)
def test_max_prob_decision_is_the_max_over_classes(probs):
    score, is_known = max_prob_decision(probs)
    want = probs.max(axis=-1)
    assert _same_bits(score, want)
    assert _same_bits(is_known, want >= 0.5)


@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(), (1,), (4,), (2, 3)]),
       m=st.integers(1, 40), n=st.integers(1, 12),
       d=st.one_of(st.integers(1, 80), st.sampled_from([128, 512, 1600])),
       equal_rows=st.booleans())
@settings(max_examples=200, deadline=None)
def test_sq_distances_is_the_gram_form(seed, lead, m, n, d, equal_rows):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=lead + (m, d)) * rng.choice([1e-3, 1.0, 30.0])
    b = rng.normal(size=lead + (n, d))
    if equal_rows:  # exact self-zeros
        b[..., : min(m, n), :] = a[..., : min(m, n), :]
    got = ad.sq_distances(a, b)
    assert got.flags.c_contiguous
    assert _same_bits(got, _gram_sq_distances(a, b))


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), m=st.integers(2, 160),
       decimals=st.sampled_from([None, 0, 1, 2, 6]), signed_zeros=st.booleans())
@settings(max_examples=300, deadline=None)
def test_auroc_is_the_stable_sort_form(seed, rows, m, decimals, signed_zeros):
    rng = np.random.default_rng(seed)
    t = np.where(rng.random((rows, m)) < 0.4, UNKNOWN, rng.integers(0, 5, (rows, m)))
    t[:, 0], t[:, 1] = 0, UNKNOWN
    # heavy ties: constant scores, or scores rounded to few digits
    s = np.zeros((rows, m)) if decimals is None else np.round(rng.normal(size=(rows, m)), decimals)
    if signed_zeros:  # the threshold gate scores -distance, so -0.0 meets +0.0
        s = np.where(rng.random((rows, m)) < 0.3, -0.0, s)
    triple = (t, t, s)
    assert _same_bits(auroc(triple), _stable_auroc(triple))
    assert _same_bits(auroc((t[0], t[0], s[0])), _stable_auroc((t[0], t[0], s[0])))


def _old_bce(z, y, g):
    """autodiff.bce's forward loss and backward logit gradient as they were
    written before its mean became an add.reduce and its backward one
    in-place division, kept verbatim."""
    e = np.exp(-np.abs(z))
    loss = np.float64((np.maximum(z, 0.0) - z * y + np.log1p(e)).mean())
    p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return loss, (float(g) / z.size) * (p - y)


# logits: signed zeros, saturating values whose exp(-|z|) underflows to 0,
# and a small pool that repeats, so ties are common
_LOGITS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 3.0, 40.0, -40.0, 800.0, -800.0,
                                     1e300, -1e300]),
                    st.floats(min_value=-60.0, max_value=60.0, allow_subnormal=True))


@given(shape=st.sampled_from([(), (1,), (7,), (1, 1), (50, 5), (12, 3), (3, 4, 2)]),
       data=st.data(), binary=st.booleans(),
       g=st.sampled_from([1.0, 0.5, -3.0, 0.0, -0.0, 1e-300]))
@settings(max_examples=300, deadline=None)
def test_bce_is_the_mean_form(shape, data, binary, g):
    size = int(np.prod(shape))
    z = np.array(data.draw(st.lists(_LOGITS, min_size=size, max_size=size))).reshape(shape)
    targets = st.sampled_from([0.0, 1.0]) if binary else st.floats(0.0, 1.0)
    y = np.array(data.draw(st.lists(targets, min_size=size, max_size=size))).reshape(shape)
    with ad.Tape() as tape:
        loss = ad.bce(ad.Tensor(z, requires_grad=True), ad.Tensor(y))
    want_loss, want_grad = _old_bce(z, y, g)
    assert _same_bits(loss.data, want_loss)
    grad, no_grad = tape.entries[-1].backward_fn(np.array(g))
    assert no_grad is None
    assert _same_bits(grad, want_grad)


def _old_scale_shift(xd, gd, bd, g):
    """autodiff.scale_shift's output and its three gradients as they were
    written with (1,) * ndim and [1, c, 1, 1] operands and ndarray.sum, kept
    verbatim."""
    if gd.size == 1:
        shape, axes = (1,) * xd.ndim, None
    else:
        shape, axes = (1, gd.shape[0], 1, 1), (0, 2, 3)
    gb, bb = gd.reshape(shape), bd.reshape(shape)
    out = gb * xd + bb
    gx = g * gb
    ggamma = (g * xd).sum(axis=axes).reshape(gd.shape)
    gbeta = g.sum(axis=axes).reshape(bd.shape)
    return out, gx, ggamma, gbeta


# scale_shift operands: signed zeros, subnormals, large values whose products
# and sums stay finite, and a small pool that repeats
_SHIFT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -3.0, 1e150,
                                           -1e150]),
                          st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=True))


@given(form=st.sampled_from([((), ()), ((), (1,)), ((1,), ()), ((1,), (1,)), ((7,), ()),
                             ((50, 5), ()), ((50, 5), (1,)), ((3, 4, 2), (1,)),
                             ((2, 3, 4, 4), ()), ((2, 3, 4, 4), (3,)), ((1, 5, 2, 2), (5,))]),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_scale_shift_is_the_reshaped_form(form, data):
    """The scalar form on 0-d x (mbce's offset) and on rows, gamma shaped ()
    and (1,), and the per-channel form on [n, c, h, w] images."""
    x_shape, g_shape = form

    def draw(shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(_SHIFT_VALUES, min_size=size, max_size=size)),
                        dtype=np.float64).reshape(shape)

    xd, gd, bd, g = draw(x_shape), draw(g_shape), draw(g_shape), draw(x_shape)
    x, gamma, beta = (ad.Tensor(v, requires_grad=True) for v in (xd, gd, bd))
    with ad.Tape() as tape:
        out = ad.scale_shift(x, gamma, beta)
    want_out, *want_grads = _old_scale_shift(xd, gd, bd, g)
    assert _same_bits(out.data, want_out)
    for got, want in zip(tape.entries[-1].backward_fn(g), want_grads):
        assert _same_bits(got, want)


def _old_squared_distance_grads(a, b, g):
    """autodiff.squared_distance's two operand gradients as they were written,
    one expression each, kept verbatim."""
    return (2.0 * (np.add.reduce(g, 1)[:, None] * a - g @ b),
            2.0 * (np.add.reduce(g, 0)[:, None] * b - g.T @ a))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60), n=st.integers(1, 12),
       d=st.one_of(st.integers(1, 80), st.sampled_from([128, 512])),
       equal_rows=st.booleans(), zeros=st.sampled_from([0.0, 0.3, 1.0]),
       taped=st.sampled_from(["both", "a", "b"]))
@settings(max_examples=200, deadline=None)
def test_squared_distance_grads_are_the_expression_form(seed, m, n, d, equal_rows, zeros, taped):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, d)) * rng.choice([1e-3, 1.0, 30.0])
    b = rng.normal(size=(n, d))
    if equal_rows:  # exact self-zeros
        b[: min(m, n)] = a[: min(m, n)]
    # signed zeros in the operands and in the upstream gradient, all of it at 1.0
    a[rng.random(a.shape) < zeros / 4] = -0.0
    g = rng.normal(size=(m, n))
    g = np.where(rng.random((m, n)) < zeros, np.where(rng.random((m, n)) < 0.5, 0.0, -0.0), g)
    ta = ad.Tensor(a, requires_grad=taped in ("both", "a"))
    tb = ad.Tensor(b, requires_grad=taped in ("both", "b"))
    with ad.Tape() as tape:
        ad.squared_distance(ta, tb)
    got = tape.entries[-1].backward_fn(g)
    for grad, want, needed in zip(got, _old_squared_distance_grads(a, b, g),
                                  (ta.requires_grad, tb.requires_grad)):
        if needed:
            assert _same_bits(grad, want)
        else:
            assert grad is None
