import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

import fsos.autodiff as ad
from fsos.autodiff import (
    PrimitiveError,
    Tape,
    TapeError,
    Tensor,
    backward,
    gradient_check,
)


def test_sigmoid_spot_values():
    assert ad.sigmoid(Tensor(0.0)).data == 0.5
    # sigma(-ln 3) = 1/4
    assert abs(ad.sigmoid(Tensor(-np.log(3.0))).data - 0.25) < 1e-12


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_sigmoid_complement_identity(x):
    p = float(ad.sigmoid(Tensor(x)).data)
    q = float(ad.sigmoid(Tensor(-x)).data)
    assert 0.0 < p < 1.0
    assert abs(p + q - 1.0) < 1e-12


def test_sigmoid_extremes_stay_open_interval():
    for x in (-1e4, -745.0, 745.0, 1e4):
        p = float(ad.sigmoid(Tensor(x)).data)
        assert 0.0 < p < 1.0
        assert np.isfinite(p)


def _masked_sigmoid(z):
    """The sigmoid as each half of a boolean mask computes it: exp(-z) on
    the non-negative inputs, exp(z) on the rest, then clipped into (0, 1)."""
    y = np.empty_like(z)
    pos = z >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    y[~pos] = ez / (1.0 + ez)
    return np.clip(y, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def test_sigmoid_equals_the_masked_formula_bit_for_bit():
    edges = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf,
             5e-324, -5e-324]
    rng = np.random.default_rng(0)
    z = np.concatenate([edges, rng.normal(scale=30.0, size=3000), rng.uniform(-800, 800, 3000)])
    for x in (z, z[:6000].reshape(10, 150, 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad.sigmoid(Tensor(x)).data
            want = _masked_sigmoid(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _scalar(t):
    """A [1, 1] result as a 0-d tensor."""
    return ad.reshape(t, ())


def test_squared_distance_identical_vectors():
    v = Tensor([[1.0, 2.0]])
    assert float(_scalar(ad.squared_distance(v, Tensor([[1.0, 2.0]]))).data) == 0.0


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_squared_distance_symmetric_nonnegative(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    dab = float(_scalar(ad.squared_distance(Tensor([a]), Tensor([b]))).data)
    dba = float(_scalar(ad.squared_distance(Tensor([b]), Tensor([a]))).data)
    assert dab == dba
    assert dab >= 0.0
    if a == b:
        assert dab == 0.0


def test_squared_distance_pairwise_matches_vector_form():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(3, 6))
    pair = ad.squared_distance(Tensor(a), Tensor(b)).data
    for i in range(4):
        for j in range(3):
            single = float(_scalar(ad.squared_distance(Tensor(a[i : i + 1]),
                                                       Tensor(b[j : j + 1]))).data)
            assert np.isclose(pair[i, j], single, rtol=1e-12, atol=0.0)


def _broadcast_sq_distances(a, b):
    """Reference: the [..., m, n, d] difference-tensor formula."""
    diff = a[..., :, None, :] - b[..., None, :, :]
    return np.einsum("...mnd,...mnd->...mn", diff, diff)


@st.composite
def _row_stacks(draw):
    """Row stacks a [B, m, d] and b [B, n, d]. b ends with a copy of a's
    rows, so row i of a and row n - 2m + i of b are identical, and then with
    a copy one ulp away, where the Gram form before its clamp can go below 0."""
    batch, m, n, d = (draw(st.integers(1, hi)) for hi in (3, 6, 6, 70))
    values = st.floats(min_value=-100, max_value=100, allow_nan=False)
    a = draw(hnp.arrays(np.float64, (batch, m, d), elements=values))
    b = draw(hnp.arrays(np.float64, (batch, n, d), elements=values))
    return a, np.concatenate([b, a, np.nextafter(a, np.inf)], axis=1)


@given(_row_stacks())
@settings(max_examples=200, deadline=None)
def test_sq_distances_kernel_properties(stacks):
    a, b = stacks
    m, n = a.shape[1], b.shape[1]
    d = ad.sq_distances(a, b)
    assert d.shape == (a.shape[0], m, n)
    assert np.array_equal(d, ad.sq_distances(b, a).swapaxes(1, 2))  # symmetric, bit for bit
    assert np.all(d >= 0.0)
    assert np.all(d[:, np.arange(m), n - 2 * m + np.arange(m)] == 0.0)  # identical rows
    # a batched call is its per-slice 2-d calls, as the taped primitive makes them
    for i in range(a.shape[0]):
        assert np.array_equal(d[i], ad.sq_distances(a[i], b[i]))
        assert np.array_equal(d[i], ad.squared_distance(Tensor(a[i]), Tensor(b[i])).data)
    # the Gram form's error is a few ulps of the squared norms; near 0 that
    # is what remains of a cancellation, so it is allowed on top of 1e-12
    norms = (a * a).sum(axis=-1)[:, :, None] + (b * b).sum(axis=-1)[:, None, :]
    want = _broadcast_sq_distances(a, b)
    assert np.all(np.abs(d - want) <= 1e-12 * (want + norms))


def test_squared_distance_gradient_check_both_operands():
    rng = np.random.default_rng(5)
    weights = Tensor(rng.normal(size=(1, 12)))
    report = gradient_check(
        lambda ps: ad.dot(ad.reshape(ad.squared_distance(ps[0], ps[1]), (1, 12)), weights),
        [rng.normal(size=(4, 5)), rng.normal(size=(3, 5))],
    )
    assert report.passed, report
    assert len(report.errors) == 2


def test_affine_identity_map():
    out = ad.affine(Tensor([[1.0, 1.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    out = ad.reshape(out, (2,))
    assert np.array_equal(out.data, [1.0, 1.0])


def test_mean_rows_plain_and_grouped():
    x = Tensor([[1.0, 3.0], [3.0, 5.0]])
    assert np.array_equal(ad.mean_rows(x).data, [[2.0, 4.0]])
    g = ad.mean_rows(Tensor([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0], [8.0, 8.0]]), groups=2)
    assert np.array_equal(g.data, [[1.0, 1.0], [6.0, 6.0]])


# special values for the order-independent mean: signed zeros, infinities,
# subnormals and values whose sums overflow
_MEAN_SPECIALS = (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                  1.7e308, -1.7e308, 1.0, -1.0)


@st.composite
def _row_blocks(draw):
    """(values [g * k, d], g): k 1..20, g 1..80, d 1..6 or 64, drawn from a
    small pool of special and arbitrary floats, so ties are common."""
    k, g = draw(st.integers(1, 20)), draw(st.integers(1, 80))
    d = draw(st.integers(1, 6) | st.just(64))
    pool = draw(st.lists(st.sampled_from(_MEAN_SPECIALS) | st.floats(allow_nan=False),
                         min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(0, len(pool), size=(g * k, d))
    return np.array(pool, dtype=np.float64)[picks], g


@given(_row_blocks())
@settings(max_examples=300, deadline=None)
def test_row_block_mean_is_the_sorted_mean_bit_for_bit(case):
    values, g = case
    n, d = values.shape
    blocks = values.reshape(g, n // g, d)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.sort(blocks, axis=1).mean(axis=1)
        got = ad.row_block_mean(values, g)
        assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()


@pytest.mark.parametrize("k", range(1, 21))
def test_sorting_network_sorts_every_zero_one_input(k):
    """A comparator network that sorts every 0/1 input sorts every input."""
    rows = list((np.arange(2**k)[None, :] >> np.arange(k)[:, None]) & 1)
    for i, j in ad._sorting_network(k):
        rows[i], rows[j] = np.minimum(rows[i], rows[j]), np.maximum(rows[i], rows[j])
    assert np.all(np.diff(np.stack(rows), axis=0) >= 0)


def test_dot_pairwise_matches_vector_form():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 5)), rng.normal(size=(2, 5))
    pair = ad.dot(Tensor(a), Tensor(b)).data
    assert pair.shape == (3, 2)
    assert abs(pair[1, 0] - float(_scalar(ad.dot(Tensor(a[1:2]), Tensor(b[0:1]))).data)) < 1e-12


# the pool of a fused dense layer's values: exact zeros of either sign, and
# small integers whose sums cancel to exact +0.0, or stay -0.0 over products
# of -0.0; +-1e300 overflows to +-inf and, on cancelling, to NaN
_FUSED_POOL = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1e300, -1e300])


@st.composite
def _dense_layer_cases(draw):
    """Dense layers at the extractor's and transfer module's row counts and
    at widths 1 to 9 and 64, with or without a bias, x taped or constant;
    each value is drawn from _FUSED_POOL, its large entries at a drawn rate."""
    n = draw(st.sampled_from(list(range(1, 10)) + [50, 150, 200]))
    d, m = (draw(st.sampled_from(list(range(1, 10)) + [64])) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big = draw(st.sampled_from([0.0, 0.01, 0.2]))
    weights = np.where(np.abs(_FUSED_POOL) > 1.0, big, 1.0)

    def values(*shape):
        return rng.choice(_FUSED_POOL, size=shape, p=weights / weights.sum())

    bias = values(m) if draw(st.booleans()) else None
    return values(n, d), values(d, m), bias, values(n, m), draw(st.booleans())


@given(_dense_layer_cases())
@settings(max_examples=200, deadline=None)
def test_affine_relu_equals_relu_of_affine_bit_for_bit(case):
    # the fused layer masks the upstream gradient by its output, y > 0, where
    # relu masks by its input: the same mask for -0.0 and NaN too
    x, w, b, g, x_grad = case
    leaves = [Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True)]
    leaves += [] if b is None else [Tensor(b, requires_grad=True)]
    with np.errstate(over="ignore", invalid="ignore"):
        with Tape() as fused_tape:
            fused = ad.affine(*leaves, relu=True)
        with Tape() as tape:
            want = ad.relu(ad.affine(*leaves))
        got_grads = fused_tape.entries[0].backward_fn(g)
        want_grads = tape.entries[0].backward_fn(tape.entries[1].backward_fn(g)[0])
    assert [e.kind for e in fused_tape.entries] == ["affine"]
    assert np.array_equal(_bits(fused.data), _bits(want.data))
    assert len(got_grads) == len(want_grads) == len(leaves)
    assert (got_grads[0] is None) == (want_grads[0] is None) == (not x_grad)
    for got, ref in zip(got_grads, want_grads):
        if ref is not None:
            assert np.array_equal(_bits(got), _bits(ref))


def test_gradient_check_two_fused_dense_layers():
    from conftest import _dense_margins_ok

    for attempt in range(64):
        rng = np.random.default_rng((11, attempt))
        x = rng.normal(size=(6, 5))
        point = [rng.normal(size=(5, 4)) * 0.5, rng.normal(size=4) * 0.1,
                 rng.normal(size=(4, 3)) * 0.5, rng.normal(size=3) * 0.1]
        hidden = np.maximum(x @ point[0] + point[1], 0.0)
        if _dense_margins_ok(x, *point[:2]) and _dense_margins_ok(hidden, *point[2:]):
            break
    else:
        raise AssertionError("no point away from the ReLU kinks")

    def build(ps):
        h = ad.affine(Tensor(x), ps[0], ps[1], relu=True)
        h = ad.affine(h, ps[2], ps[3], relu=True)
        return ad.softmax_xent(h, Tensor(np.arange(6) % 3))

    report = gradient_check(build, point, tolerance=1e-4)
    assert report.passed, report.errors


def test_affine_batched_input_matches_each_slice():
    rng = np.random.default_rng(3)
    x, w, b = rng.normal(size=(3, 1, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
    out = ad.affine(x, w, b).data
    # each [1, 4] slice alone, as an unbatched caller would multiply it
    assert all(np.array_equal(out[i], ad.affine(x[i], w, b).data) for i in range(3))
    report = gradient_check(
        lambda ps: ad.dot(ad.reshape(ad.affine(ps[0], ps[1], ps[2]), (1, -1)),
                          Tensor(np.arange(6.0)[None])),
        [rng.normal(size=(3, 1, 4)), w, b],
    )
    assert report.passed, report


@pytest.mark.parametrize("constant_side", ["left", "right"])
def test_affine_and_dot_skip_the_gradient_of_constant_operands(constant_side):
    """Data rows and cached embeddings need no gradient: affine and dot return
    None for them without computing it, and every other gradient keeps its
    bits."""
    rng = np.random.default_rng(4)
    x, w, b, p = (rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3),
                  rng.normal(size=(2, 3)))
    targets = np.eye(2)[np.arange(6) % 2]

    def run(constants):
        leaves = [Tensor(x, requires_grad=not constants), Tensor(w, requires_grad=True),
                  Tensor(b, requires_grad=True), Tensor(p, requires_grad=not constants)]
        with Tape() as tape:
            h = ad.affine(*leaves[:3])
            if constant_side == "right":
                loss = ad.bce(ad.dot(h, leaves[3]), Tensor(targets))
            else:
                loss = ad.bce(ad.dot(leaves[3], h), Tensor(targets.T))
        returned = {}

        def spy(entry):
            fn = entry.backward_fn
            entry.backward_fn = lambda g: returned.setdefault(entry.kind, fn(g))

        for entry in tape.entries:
            spy(entry)
        backward(tape, loss)
        return [t.grad for t in leaves], returned

    (gx, gw, gb, gp), taped = run(constants=False)
    (fx, fw, fb, fp), frozen = run(constants=True)
    assert np.array_equal(fw, gw) and np.array_equal(fb, gb)
    assert fx is None and fp is None
    assert taped["affine"][0] is not None and frozen["affine"][0] is None
    side = 1 if constant_side == "right" else 0
    assert taped["dot"][side] is not None and frozen["dot"][side] is None
    assert frozen["dot"][1 - side] is not None


def test_shape_errors_name_the_primitive():
    with pytest.raises(PrimitiveError) as exc:
        ad.affine(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    assert "affine" in str(exc.value)
    with pytest.raises(PrimitiveError) as exc:
        ad.squared_distance(Tensor([[1.0]]), Tensor([[1.0, 2.0]]))
    assert "squared_distance" in str(exc.value)


# the operand forms no model path feeds a primitive, and labels outside
# softmax_xent's classes, one list per primitive
_REMOVED_FORMS = {
    "squared_distance": [
        lambda: ad.squared_distance(Tensor([1.0, 2.0]), Tensor([4.0, 6.0])),  # vectors
        lambda: ad.squared_distance(Tensor(np.ones((3, 2))), Tensor([4.0, 6.0])),
    ],
    "dot": [
        lambda: ad.dot(Tensor([1.0, 2.0]), Tensor([4.0, 6.0])),  # vectors
        lambda: ad.dot(Tensor([1.0, 2.0]), Tensor(np.ones((3, 2)))),
    ],
    "affine": [lambda: ad.affine(Tensor([1.0, 1.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))],
    "softmax_xent": [
        lambda: ad.softmax_xent(Tensor([0.0, 1.0, 2.0]), Tensor([1.0])),
        # labels that are not integers in [0, n_classes): fractional,
        # negative, and one past the last class
        lambda: ad.softmax_xent(Tensor(np.zeros((2, 3))), Tensor([0.0, 1.5])),
        lambda: ad.softmax_xent(Tensor(np.zeros((2, 3))), Tensor([-1.0, 2.0])),
        lambda: ad.softmax_xent(Tensor(np.zeros((2, 3))), Tensor([0.0, 3.0])),
    ],
    "scale_shift": [
        # per-channel parameters on anything but [n, c, h, w] images
        lambda: ad.scale_shift(Tensor(np.ones((3, 2))), Tensor(np.ones(3)), Tensor(np.zeros(3))),
        lambda: ad.scale_shift(Tensor(np.ones((2, 4, 4))), Tensor(np.ones(2)),
                               Tensor(np.zeros(2))),
    ],
}


@pytest.mark.parametrize("primitive", sorted(_REMOVED_FORMS))
def test_removed_operand_forms_raise(primitive):
    for call in _REMOVED_FORMS[primitive]:
        with pytest.raises(PrimitiveError) as exc:
            call()
        assert exc.value.primitive == primitive
        assert str(exc.value).startswith(f"{primitive}: ")


def test_softmax_xent_uniform_is_log_n():
    logits = Tensor(np.zeros((4, 3)))
    loss = ad.softmax_xent(logits, Tensor([0.0, 1.0, 2.0, 0.0]))
    assert abs(float(loss.data) - np.log(3.0)) < 1e-12


def test_bce_half_probability_is_log_two():
    loss = ad.bce(Tensor(np.zeros((2, 2))), Tensor(np.ones((2, 2))))
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_bce_safe_at_extreme_logits():
    loss = ad.bce(Tensor([1e4, -1e4]), Tensor([1.0, 0.0]))
    assert np.isfinite(float(loss.data))


# ---------------------------------------------------------------------------
# backward


def test_backward_sigmoid_dot():
    w = Tensor(np.zeros((1, 1)), requires_grad=True)
    x = Tensor([[1.0]])
    with Tape() as tape:
        loss = ad.sigmoid(ad.dot(w, x))
    backward(tape, loss)
    assert np.allclose(w.grad, [0.25], atol=1e-15)


def test_backward_distance_minimum_gives_zero_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([1.0, 2.0])
    with Tape() as tape:
        loss = ad.squared_distance(ad.reshape(a, (1, 2)), ad.reshape(b, (1, 2)))
    backward(tape, loss)
    assert np.array_equal(a.grad, [0.0, 0.0])


def test_backward_requires_scalar_and_on_tape_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.relu(x)
    with pytest.raises(TapeError):
        backward(tape, y)  # not scalar
    with Tape() as tape:
        ad.relu(x)
    with pytest.raises(TapeError):
        backward(tape, Tensor(1.0))  # constant, never produced here


@pytest.mark.parametrize("reshape_first", [True, False])
def test_backward_owns_no_returned_gradient(reshape_first):
    """A produced tensor h with two consumers, one of them reshape, whose
    backward returns a view of its upstream gradient: h's gradients equal
    finite differences, and backward modifies no array a backward function
    returned, in either consumer order."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3))
    labels = Tensor(np.array([0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0]))

    def build(ps):
        h = ad.relu(ad.affine(Tensor(x), ps[0]))  # [4, 6], produced
        if reshape_first:
            la = ad.affine(ad.reshape(h, (8, 3)), ps[1])
            lb = ad.affine(h, ps[2])
        else:
            lb = ad.affine(h, ps[2])
            la = ad.affine(ad.reshape(h, (8, 3)), ps[1])
        return ad.softmax_xent(ad.squared_distance(la, lb), labels)

    point = [rng.normal(size=(3, 6)), rng.normal(size=(3, 2)), rng.normal(size=(6, 2))]
    report = gradient_check(build, point)
    assert report.passed, report.errors

    params = [Tensor(p.copy(), requires_grad=True) for p in point]
    with Tape() as tape:
        loss = build(params)
    returned = []  # (kind, upstream gradient, returned arrays, their copies)

    def recording(kind, backward_fn):
        def fn(g):
            out = backward_fn(g)
            arrays = [a for a in out if a is not None]
            returned.append((kind, g, arrays, [np.array(a, copy=True) for a in arrays]))
            return out

        return fn

    for entry in tape.entries:
        entry.backward_fn = recording(entry.kind, entry.backward_fn)
    backward(tape, loss)
    views = [(g, arrays[0]) for kind, g, arrays, _ in returned if kind == "reshape"]
    assert len(views) == 1 and np.shares_memory(*views[0])
    for kind, _, arrays, copies in returned:
        for a, c in zip(arrays, copies):
            assert np.array_equal(a, c), kind


@pytest.mark.parametrize("loss_kind", ["bce", "dot"])
def test_backward_fn_that_writes_its_upstream_gradient_raises(loss_kind):
    """backward seeds a loss, 0-d or [1, 1], with a read-only 1.0, so a
    backward function that breaks the ownership rule by writing its
    upstream gradient raises, and the seed stays 1.0."""
    x = Tensor([[0.5, -2.0]] if loss_kind == "bce" else [[3.0]], requires_grad=True)
    with Tape() as tape:
        loss = ad.bce(x, Tensor([[1.0, 0.0]])) if loss_kind == "bce" else ad.dot(x, x)
    entry = tape.entries[-1]
    written = entry.backward_fn

    def writing(g):
        g *= 2.0
        return written(g)

    entry.backward_fn = writing
    with pytest.raises(ValueError, match="read-only"):
        backward(tape, loss)
    assert x.grad is None
    with Tape() as tape:
        loss = ad.dot(x, x)
    backward(tape, loss)
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_nested_tapes_record_to_the_innermost():
    x = Tensor([[3.0]], requires_grad=True)
    assert ad.active_tape() is None
    with Tape() as outer:
        ad.dot(x, x)
        with Tape() as inner:
            assert ad.active_tape() is inner
            loss = ad.dot(x, x)
        assert ad.active_tape() is outer
        ad.relu(x)
    assert ad.active_tape() is None
    assert [e.kind for e in outer.entries] == ["dot", "relu"]
    assert [e.kind for e in inner.entries] == ["dot"]
    backward(inner, loss)
    assert np.array_equal(x.grad, [[6.0]])


def test_backward_consumes_tape():
    x = Tensor([[3.0]], requires_grad=True)
    with Tape() as tape:
        loss = ad.dot(x, x)
    backward(tape, loss)
    with pytest.raises(TapeError):
        backward(tape, loss)


def test_gradients_accumulate_until_cleared():
    x = Tensor([[2.0]], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            loss = ad.dot(x, x)
        backward(tape, loss)
    assert np.allclose(x.grad, [8.0])


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    out = ad.relu(x)
    assert out.data[0] == 1.0
    assert x.grad is None


# ---------------------------------------------------------------------------
# gradient_check


def test_gradient_check_constant_builder_is_exact_zero():
    report = gradient_check(lambda ps: Tensor(3.0), [np.array([1.0, 2.0])])
    assert report.errors == [0.0]
    assert report.passed


def test_gradient_check_three_layer_composition():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 6))

    def build(ps):
        h = ad.relu(ad.affine(Tensor(x), ps[0], ps[1]))
        h = ad.relu(ad.affine(h, ps[2], ps[3]))
        protos = ad.reshape(ad.mean_rows(h, groups=1), (1, -1))
        d = ad.squared_distance(h, protos)
        return ad.bce(ad.scale_shift(d, Tensor(-0.1), ps[4]), Tensor(np.ones((5, 1))))

    point = [
        rng.normal(size=(6, 4)) * 0.5,
        rng.normal(size=4) * 0.1,
        rng.normal(size=(4, 3)) * 0.5,
        rng.normal(size=3) * 0.1,
        np.array(0.3),
    ]
    report = gradient_check(build, point, tolerance=1e-4)
    assert report.passed, report.errors


@pytest.mark.parametrize("seed", range(6))
def test_gradient_check_random_compositions(seed):
    from conftest import random_composition

    report = gradient_check(*random_composition(seed))
    assert report.passed, (seed, report.errors)


def _reference_conv3x3_pool(x, kernel, bias, g):
    """The per-tap einsum conv and argmax pool that conv3x3_pool replaced:
    returns the output and the gradients of sum(out * g) for x, kernel, bias."""
    nb, _, h, w = x.shape
    oc = kernel.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    conv = np.zeros((nb, oc, h, w))
    for di in range(3):
        for dj in range(3):
            conv += np.einsum(
                "oc,nchw->nohw", kernel[:, :, di, dj], xp[:, :, di : di + h, dj : dj + w]
            )
    conv += bias[None, :, None, None]
    act = np.maximum(conv, 0.0)
    h2, w2 = h // 2, w // 2
    windows = act.reshape(nb, oc, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        nb, oc, h2, w2, 4
    )
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    gwin = np.zeros((nb, oc, h2, w2, 4))
    np.put_along_axis(gwin, arg[..., None], g[..., None], axis=-1)
    gact = gwin.reshape(nb, oc, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(nb, oc, h, w)
    gconv = gact * (conv > 0.0)
    gk = np.empty_like(kernel)
    gxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di : di + h, dj : dj + w]
            gk[:, :, di, dj] = np.einsum("nohw,nchw->oc", gconv, patch)
            gxp[:, :, di : di + h, dj : dj + w] += np.einsum(
                "oc,nohw->nchw", kernel[:, :, di, dj], gconv
            )
    return out, gxp[:, :, 1:-1, 1:-1], gk, gconv.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("case", ["random", "zero_input_ties"])
def test_conv3x3_pool_matches_per_tap_reference(case):
    # non-square [3, 2, 4, 6] input, so an h/w transpose slip cannot hide
    rng = np.random.default_rng(8)
    kernel = rng.normal(size=(5, 2, 3, 3)) * 0.5
    if case == "random":
        x = rng.normal(size=(3, 2, 4, 6))
        bias = rng.normal(size=5) * 0.1
    else:
        # every conv output equals its bias, so all four positions of every
        # pool window tie; the negative-bias channel is ReLU-masked
        x = np.zeros((3, 2, 4, 6))
        bias = np.array([0.3, -0.2, 0.7, 0.1, 1.5])
    g = rng.normal(size=(3, 5, 2, 3))
    ref_out, *ref_grads = _reference_conv3x3_pool(x, kernel, bias, g)

    leaves = [Tensor(a, requires_grad=True) for a in (x, kernel, bias)]
    with Tape() as tape:
        out = ad.conv3x3_pool(*leaves)
        loss = ad.dot(ad.reshape(out, (1, -1)), Tensor(g.reshape(1, -1)))
    backward(tape, loss)

    assert out.shape == (3, 5, 2, 3)
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
    for leaf, ref in zip(leaves, ref_grads):
        np.testing.assert_allclose(leaf.grad, ref, rtol=0, atol=1e-12)
    if case == "zero_input_ties":
        # ties are real, and a gradient routed to any window position other
        # than (0, 0) would move x's gradient away from the reference
        relu_bias = np.maximum(bias, 0.0)[:, None, None]
        assert np.array_equal(out.data, np.broadcast_to(relu_bias, out.shape))
        assert np.abs(leaves[0].grad).max() > 0.1


@pytest.mark.parametrize("bias_offset", [0.0, 5.0], ids=["random", "all_ties"])
def test_conv3x3_pool_output_same_with_and_without_tape(bias_offset):
    # without a tape the pool skips its winner index; the output must not move
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 2, 4, 6)) * (bias_offset == 0.0)
    kernel, bias = rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4) + bias_offset
    untaped = ad.conv3x3_pool(x, kernel, bias)
    with Tape() as tape:
        taped = ad.conv3x3_pool(x, kernel, bias)
    assert len(tape) == 1
    assert np.array_equal(untaped.data, taped.data)


# zero padding of the two spatial axes of a channels-last [n, h, w, c] image
_REF_PAD_HW = ((0, 0), (1, 1), (1, 1), (0, 0))


def _ref_im2col(xp, h2, w2):
    """Row-major 3x3 patch rows of a zero-padded channels-last
    [n, 2*h2+2, 2*w2+2, c] image, [4*n*h2*w2, 9*c]: columns in (ki, kj, c)
    order, rows in (di, dj, n, y, x) order for output pixel (2y+di, 2x+dj)."""
    nb, c = xp.shape[0], xp.shape[3]
    taps = sliding_window_view(xp, (3, 3), axis=(1, 2))  # [n, h, w, c, 3, 3]
    taps = taps.reshape(nb, h2, 2, w2, 2, c, 3, 3).transpose(2, 4, 0, 1, 3, 6, 7, 5)
    return np.ascontiguousarray(taps.reshape(4 * nb * h2 * w2, 9 * c))


def _ref_unwindow(rows, nb, h2, w2):
    """Rows in _ref_im2col order, [4*n*h2*w2, k], as a channels-last
    [n, 2*h2, 2*w2, k] image."""
    k = rows.shape[1]
    rows = rows.reshape(2, 2, nb, h2, w2, k).transpose(2, 3, 0, 4, 1, 5)
    return rows.reshape(nb, 2 * h2, 2 * w2, k)


def _relu_then_pool(x, kernel, bias, g):
    """The im2col GEMM conv3x3_pool is built on, from np.pad and a
    row-major im2col of its own, with the bias and ReLU applied to every
    pre-pool value and the pool after them, its winner read on post-ReLU
    values: the output, and the (x, kernel, bias) gradients for upstream
    gradient g, routed as that order routes them."""
    nb, c, h, w = x.shape
    oc, h2, w2 = kernel.shape[0], h // 2, w // 2
    m = nb * h2 * w2
    xp = np.pad(x.transpose(0, 2, 3, 1), _REF_PAD_HW)
    act = _ref_im2col(xp, h2, w2) @ kernel.transpose(2, 3, 1, 0).reshape(9 * c, oc)
    act += bias
    np.maximum(act, 0.0, out=act)
    act = act.reshape(4, m, oc)
    pooled, arg = act[0].copy(), np.zeros((m, oc), dtype=np.int8)
    for i in range(1, 4):
        np.maximum(arg, (act[i] > pooled) * np.int8(i), out=arg)
        np.maximum(pooled, act[i], out=pooled)
    gpool = g.transpose(0, 2, 3, 1).reshape(m, oc) * (pooled > 0.0)
    gconv = (gpool * (arg == np.arange(4, dtype=np.int8)[:, None, None])).reshape(4 * m, oc)
    gk = (_ref_im2col(xp, h2, w2).T @ gconv).reshape(3, 3, c, oc).transpose(3, 2, 0, 1)
    gimg = np.pad(_ref_unwindow(gconv, nb, h2, w2), _REF_PAD_HW)
    kflip = kernel[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(9 * oc, c)
    gx = _ref_unwindow(_ref_im2col(gimg, h2, w2) @ kflip, nb, h2, w2).transpose(0, 3, 1, 2)
    out = pooled.reshape(nb, h2, w2, oc).transpose(0, 3, 1, 2)
    return out, (gx, gk, gpool.sum(axis=0))


@st.composite
def _conv_cases(draw):
    """Small conv blocks whose inputs are exact zeros or scaled O(1) values,
    some all zero (every window ties), with biases of either sign up to 100
    times the activations and more (whole windows below zero, rounding
    ties), and upstream gradients of either sign with zeros."""
    nb, c, oc = (draw(st.integers(1, 3)) for _ in range(3))
    h, w = (2 * draw(st.integers(1, 3)) for _ in range(2))
    values = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False))
    # at the smaller scales, a bias rounds distinct pre-pool values to ties
    scale = draw(st.sampled_from([1.0, 1e-15, 1e-18]))
    x = draw(st.one_of(st.just(np.zeros((nb, c, h, w))),
                       hnp.arrays(np.float64, (nb, c, h, w), elements=values))) * scale
    kernel = draw(hnp.arrays(np.float64, (oc, c, 3, 3), elements=values))
    # a -0.0 bias entry is the documented corner where a zero's sign may differ
    bias = draw(hnp.arrays(np.float64, oc, elements=st.floats(-100.0, 100.0))) + 0.0
    g = draw(hnp.arrays(np.float64, (nb, oc, h // 2, w // 2), elements=values))
    return x, kernel, bias, g


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(_conv_cases())
@settings(max_examples=200, deadline=None)
def test_conv3x3_pool_equals_relu_then_pool_bit_for_bit(case):
    # pooling before the bias and ReLU must keep the output's and the
    # gradients' bits, taped or not
    x, kernel, bias, g = case
    want, want_grads = _relu_then_pool(x, kernel, bias, g)
    untaped = ad.conv3x3_pool(x, kernel, bias)
    leaves = [Tensor(a, requires_grad=True) for a in (x, kernel, bias)]
    with Tape() as tape:
        taped = ad.conv3x3_pool(*leaves)
    assert np.array_equal(_bits(untaped.data), _bits(want))
    assert np.array_equal(_bits(taped.data), _bits(want))
    for got, ref in zip(tape.entries[0].backward_fn(g), want_grads):
        assert np.array_equal(_bits(got), _bits(ref))


@st.composite
def _extractor_conv_cases(draw):
    """Conv blocks at the image extractor's shapes: 1 to 75 images of
    1, 2, 3 or 32 channels, 16x16 or 8x8, into 32 channels, 64 (the
    paper's Conv-4 width), or one, whose products one column wide run as
    GEMVs. These reach OpenBLAS's blocked GEMM kernels as well as its
    small-matrix ones. 20 and 33 channels are widths whose transposed
    kernel-gradient product moved the last bit of edge rows (33 with one
    BLAS thread, both into 64 channels with several), so they pin the
    channel counts that keep cols.T @ gconv. Inputs and
    upstream gradients hold exact zeros of either sign, and the bias scale
    decides how many windows fall below zero."""
    c = draw(st.sampled_from([1, 2, 3, 20, 32, 33]))
    oc = draw(st.sampled_from([32, 64, 1]))
    nb, side = draw(st.integers(1, 75)), draw(st.sampled_from([8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.3, 1.0]))  # share of exact zero inputs
    x = rng.normal(size=(nb, c, side, side))
    x *= rng.random(x.shape) >= zeros
    kernel = rng.normal(size=(oc, c, 3, 3)) * 0.3
    bias = rng.normal(size=oc) * draw(st.sampled_from([0.1, 1.0, 10.0])) + 0.0
    g = rng.normal(size=(nb, oc, side // 2, side // 2))
    g *= rng.random(g.shape) >= 0.25
    return x, kernel, bias, g, draw(st.booleans())


@given(_extractor_conv_cases())
@settings(max_examples=100, deadline=None)
def test_conv3x3_pool_equals_relu_then_pool_at_extractor_shapes(case):
    # conv3x3_pool picks its copies and GEMM operand layouts for speed: the
    # bits must hold at the sizes the extractor multiplies, on whichever
    # kernels OpenBLAS picks for them
    x, kernel, bias, g, x_grad = case
    want, (want_gx, *want_grads) = _relu_then_pool(x, kernel, bias, g)
    untaped = ad.conv3x3_pool(x, kernel, bias)
    leaves = [Tensor(x, requires_grad=x_grad), Tensor(kernel, requires_grad=True),
              Tensor(bias, requires_grad=True)]
    with Tape() as tape:
        taped = ad.conv3x3_pool(*leaves)
    assert np.array_equal(_bits(untaped.data), _bits(want))
    assert np.array_equal(_bits(taped.data), _bits(want))
    gx, *grads = tape.entries[0].backward_fn(g)
    if x_grad:
        assert np.array_equal(_bits(gx), _bits(want_gx))
    else:
        assert gx is None
    for got, ref in zip(grads, want_grads):
        assert np.array_equal(_bits(got), _bits(ref))


def test_conv3x3_pool_rejects_bad_shapes():
    kernel, bias = np.zeros((2, 1, 3, 3)), np.zeros(2)
    for x, k, b in [
        (np.zeros((1, 4, 4)), kernel, bias),  # unbatched [c, h, w]
        (np.zeros((1, 1, 4, 5)), kernel, bias),  # odd width
        (np.zeros((1, 2, 4, 4)), kernel, bias),  # channel mismatch
        (np.zeros((1, 1, 4, 4)), np.zeros((2, 1, 2, 2)), bias),  # not 3x3
        (np.zeros((1, 1, 4, 4)), kernel, np.zeros(3)),  # bias length
    ]:
        with pytest.raises(PrimitiveError):
            ad.conv3x3_pool(x, k, b)


def test_gradient_check_batched_nonsquare_conv_block():
    from conftest import _conv_margins_ok

    for attempt in range(64):
        rng = np.random.default_rng((41, attempt))
        x = rng.normal(size=(2, 2, 4, 6))
        kernel = rng.normal(size=(3, 2, 3, 3)) * 0.4
        bias = rng.normal(size=3) * 0.2
        if all(_conv_margins_ok(img, kernel, bias) for img in x):
            break
    else:
        pytest.fail("no margin-safe conv input found")
    weights = Tensor(rng.normal(size=(1, 2 * 3 * 2 * 3)))

    def build(ps):
        y = ad.scale_shift(ad.conv3x3_pool(ps[0], ps[1], ps[2]), ps[3], ps[4])
        return ad.dot(ad.reshape(y, (1, -1)), weights)

    point = [x, kernel, bias, 1.0 + rng.normal(size=3) * 0.1, rng.normal(size=3) * 0.1]
    report = gradient_check(build, point)
    assert report.passed, report.errors


def test_optimizer_step_lr_zero_is_bit_identical():
    from fsos.optim import make_optimizer

    for kind in ("sgd", "adam"):
        p = Tensor(np.array([1.5, -0.25, 0.0]), requires_grad=True)
        before = p.data.copy()
        opt = make_optimizer(kind, [p], 0.0)
        p.grad = np.array([3.0, -1.0, 2.0])
        opt.step()
        assert np.array_equal(p.data, before)


def test_sgd_update_rule():
    from fsos.optim import Sgd

    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Sgd([p], 0.1)
    p.grad = np.array([2.0])
    opt.step()
    assert np.allclose(p.data, [0.8])
    assert p.grad is None
    assert opt.step_count == 1


def test_zero_gradient_leaves_parameters_unchanged():
    from fsos.optim import make_optimizer

    for kind in ("sgd", "adam"):
        p = Tensor(np.array([0.7]), requires_grad=True)
        before = p.data.copy()
        opt = make_optimizer(kind, [p], 0.01)
        p.grad = np.zeros(1)
        opt.step()
        assert np.array_equal(p.data, before)


def test_adam_first_step_is_bias_corrected_unit_step():
    from fsos.optim import Adam

    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], 0.001)
    p.grad = np.array([5.0])
    opt.step()
    # bias-corrected first step is lr * g / (|g| + eps) ~= lr
    assert abs((1.0 - p.data[0]) - 0.001) < 1e-9


def test_missing_gradient_raises():
    from fsos.optim import MissingGradError, make_optimizer

    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = make_optimizer("adam", [p], 0.01)
    with pytest.raises(MissingGradError):
        opt.step()


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        with Tape() as tape:
            loss = ad.bce(ad.affine(x, w, b), Tensor(np.ones((4, 2))))
        backward(tape, loss)
        return loss.data.copy(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)
