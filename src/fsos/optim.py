"""First-order optimizers over lists of parameter tensors.

SGD updates each parameter in place from its own gradient, which the step
overwrites (g *= lr; p -= g). Adam makes one update over the flat
concatenation of every parameter's gradient, in parameter order, holds its
moments flat in the same layout, and subtracts each parameter's slice of
the update in place; a group of one tensor updates in a flat view of its
own gradient, which the step overwrites. Every elementwise operation keeps
the operands and order of the per-tensor textbook rule, so both give the
same bits as one textbook update per tensor, 0-d tensors included.
"""

import numpy as np


class MissingGradError(RuntimeError):
    """step() called while some parameter has no gradient."""


class OptimizerState:
    """Shared step logic: check grads, count steps, update, clear grads.

    _apply(grads) updates every parameter in place from its gradient, in
    parameter order, and may overwrite the gradients.
    """

    def __init__(self, params, learning_rate):
        if learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {learning_rate}")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0

    def step(self):
        grads = []
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise MissingGradError(f"parameter {i} has no gradient")
            grads.append(p.grad)
        self.step_count += 1
        self._apply(grads)
        for p in self.params:
            p.grad = None

    def _apply(self, grads):
        raise NotImplementedError


class Sgd(OptimizerState):
    def _apply(self, grads):
        rate = self.learning_rate
        for p, g in zip(self.params, grads):
            g *= rate
            p.data -= g


class Adam(OptimizerState):
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, learning_rate):
        super().__init__(params, learning_rate)
        sizes = [p.data.size for p in self.params]
        self._flat = np.empty(sum(sizes))
        # each parameter's slice of the flat update, in the parameter's shape
        ends = np.cumsum([0] + sizes).tolist()
        self._pieces = [self._flat[a:b].reshape(p.data.shape)
                        for p, a, b in zip(self.params, ends, ends[1:])]
        self.m = np.zeros_like(self._flat)
        self.v = np.zeros_like(self._flat)
        self._tmp = np.empty_like(self._flat)

    def _apply(self, grads):
        if not grads:
            return
        if len(grads) == 1:
            # one tensor: its own gradient, a buffer backward made for it,
            # is the flat update, and nothing is copied
            flat = grads[0].reshape(-1)
            self._update(flat)
            pieces = [flat.reshape(self.params[0].data.shape)]
        else:
            self._update(np.concatenate(grads, axis=None, out=self._flat))
            pieces = self._pieces
        for p, piece in zip(self.params, pieces):
            p.data -= piece

    def _update(self, grad):
        """Turn the flat gradient into the flat update, in place."""
        t = self.step_count
        m, v, tmp = self.m, self.v, self._tmp
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grad, out=tmp)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=tmp)
        tmp *= grad
        v += tmp
        # lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 - beta1^t)
        # and v_hat = v / (1 - beta2^t)
        np.divide(v, 1.0 - self.beta2**t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, 1.0 - self.beta1**t, out=grad)
        grad *= self.learning_rate
        grad /= tmp


def make_optimizer(kind, params, learning_rate):
    if kind == "sgd":
        return Sgd(params, learning_rate)
    if kind == "adam":
        return Adam(params, learning_rate)
    raise ValueError(f"unknown optimizer kind {kind!r}")
