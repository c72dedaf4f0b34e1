"""Tour of the tensor/tape machinery that everything else is built on.

Run: python3 demos/autodiff_basics.py
"""

import numpy as np

import fsos.autodiff as ad
from fsos.autodiff import Tape, Tensor, backward, gradient_check
from fsos.optim import make_optimizer

print("== forward primitives ==")
x = Tensor([[1.0, 2.0], [3.0, 4.0]])
w = Tensor(np.eye(2), requires_grad=True)
b = Tensor([0.5, -0.5], requires_grad=True)
y = ad.relu(ad.affine(x, w, b))
print("relu(affine(x, I, b)) =\n", y.data)
print("sigmoid(0) =", float(ad.sigmoid(Tensor(0.0)).data))
d = ad.squared_distance(Tensor([[1.0, 2.0]]), Tensor([[4.0, 6.0]]))
print("squared_distance([[1,2]],[[4,6]]) =", d.data)

print("\n== record a loss on a tape, backpropagate ==")
targets = Tensor([[1.0, 0.0], [0.0, 1.0]])
with Tape() as tape:
    logits = ad.affine(x, w, b)
    loss = ad.bce(logits, targets)
print("tape length:", len(tape), "loss:", float(loss.data))
backward(tape, loss)
print("d loss / d W =\n", w.grad)
print("d loss / d b =", b.grad)

print("\n== one optimizer step ==")
opt = make_optimizer("adam", [w, b], 0.05)
before = w.data.copy()
opt.step()
print("max |W change| after adam step:", np.abs(w.data - before).max())

print("\n== gradient check against central finite differences ==")


def build(ps):
    h = ad.relu(ad.affine(Tensor([[0.3, -1.2], [0.8, 0.4]]), ps[0], ps[1]))
    protos = ad.reshape(ad.mean_rows(h, groups=1), (1, -1))
    d = ad.squared_distance(h, protos)
    return ad.bce(ad.scale_shift(d, Tensor(-1.0), Tensor(0.0)), Tensor(np.ones((2, 1))))


report = gradient_check(
    build, [np.array([[0.9, 0.1], [-0.2, 1.1]]), np.array([0.05, -0.3])]
)
print(report)
