"""Optimizer steps equal the per-tensor textbook rules, bit for bit."""

import numpy as np
import pytest

from fsos import metabce
from fsos.autodiff import Tensor
from fsos.backbone import add_projection
from fsos.optim import make_optimizer

SHAPES = ((), (9,), (6, 7))


def _sgd_reference(data, grads, rate):
    """p <- p - lr * g, one tensor at a time."""
    data = [np.array(d, copy=True) for d in data]
    for step in grads:
        for i, g in enumerate(step):
            data[i] = data[i] - rate * g
    return data


def _adam_reference(data, grads, rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """m <- beta1 m + (1 - beta1) g; v <- beta2 v + ((1 - beta2) g) g;
    p <- p - lr m_hat / (sqrt(v_hat) + eps), one tensor at a time."""
    data = [np.array(d, copy=True) for d in data]
    m = [np.zeros_like(d) for d in data]
    v = [np.zeros_like(d) for d in data]
    for t, step in enumerate(grads, start=1):
        for i, g in enumerate(step):
            m[i] = m[i] * beta1 + (1.0 - beta1) * g
            v[i] = v[i] * beta2 + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            data[i] = data[i] - rate * m_hat / (np.sqrt(v_hat) + eps)
    return data


REFERENCES = {"sgd": _sgd_reference, "adam": _adam_reference}


def _gradients(rng, shapes, steps):
    """Gradients over several orders of magnitude, with exact and signed zeros."""
    out = []
    for _ in range(steps):
        step = []
        for shape in shapes:
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)
            g = np.where(rng.random(shape) < 0.1, -0.0, g)
            step.append(np.asarray(g, dtype=np.float64))
        out.append(step)
    return out


def _run(groups, grads_per_group):
    """Step every optimizer once per step, in group order, as training does."""
    optimizers = [make_optimizer(kind, tensors, rate) for kind, tensors, rate in groups]
    for step in range(len(grads_per_group[0])):
        for (_, tensors, _), grads in zip(groups, grads_per_group):
            for t, g in zip(tensors, grads[step]):
                t.grad = g.copy()
        for opt in optimizers:
            opt.step()
    return optimizers


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_step_equals_the_textbook_rule_on_0d_1d_and_2d_tensors(kind):
    rng = np.random.default_rng(41)
    # the first update lands on zeros, so every bit of it shows in the data
    start = [np.zeros(shape) for shape in SHAPES]
    tensors = [Tensor(d.copy(), requires_grad=True) for d in start]
    grads = _gradients(rng, SHAPES, steps=6)
    opt, = _run([(kind, tensors, 3e-3)], [grads])
    want = REFERENCES[kind](start, grads, 3e-3)
    for t, w in zip(tensors, want):
        assert t.data.shape == w.shape
        assert np.array_equal(t.data.view(np.uint64), w.view(np.uint64))
        assert t.grad is None
    assert opt.step_count == 6


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("variant", ["branch", "projected"])
def test_mbce_offset_group_then_the_rest(kind, variant, small_backbone):
    """mbce's two groups: the 0-d offset at its own rate, then the rest."""
    params = small_backbone
    if variant == "projected":
        add_projection(params)
    head = metabce.init_head(variant)
    trainable = metabce.trainable_tensors(head, params)
    rest = [p for p in trainable if p is not head.t]
    start = [[head.t.data.copy()], [p.data.copy() for p in rest]]
    rng = np.random.default_rng(7)
    grads = [_gradients(rng, [t.data.shape for t in group], steps=5)
             for group in ([head.t], rest)]
    _run([(kind, [head.t], 0.05), (kind, rest, 1e-4)], grads)
    for group, data, g, rate in zip(([head.t], rest), start, grads, (0.05, 1e-4)):
        for t, w in zip(group, REFERENCES[kind](data, g, rate)):
            assert np.array_equal(t.data.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("shape", SHAPES, ids=["0d", "1d", "2d"])
def test_one_tensor_group_equals_the_textbook_rule(kind, shape):
    """A group of one tensor updates in its own gradient, not the flat buffer."""
    rng = np.random.default_rng(43)
    start = np.zeros(shape)
    tensor = Tensor(start.copy(), requires_grad=True)
    grads = _gradients(rng, [shape], steps=6)
    opt, = _run([(kind, [tensor], 3e-3)], [grads])
    want, = REFERENCES[kind]([start], grads, 3e-3)
    assert tensor.data.shape == want.shape
    assert np.array_equal(tensor.data.view(np.uint64), want.view(np.uint64))
    assert tensor.grad is None
    assert opt.step_count == 6
