"""The held-graph path: the training graph as it was before the sweep
consumed it and before the dense transitions replayed their batch norm.

`held_backward` is `Tensor.backward` as it was: the same nodes in the same
order and the same gradient sums, but every node keeps its parents and its
backward closure, so the whole graph lives until the caller drops it.
`record_whole` stands in for `tensor.recompute` and records fn's ops one by
one, so the transition's normalised map is held like any activation.
"""

import numpy as np


def record_whole(fn, *inputs):
    """fn(*inputs), recorded op by op."""
    return fn(*inputs)


def _visit(t, seen, order):
    if id(t) in seen:
        return
    seen.add(id(t))
    for p in t._parents:
        _visit(p, seen, order)
    order.append(t)


def held_backward(root, grad):
    """Sum the gradients of root's graph into its leaves, keeping the graph."""
    grads = {id(root): np.broadcast_to(np.asarray(grad, dtype=root.dtype), root.shape)}
    order = []
    _visit(root, set(), order)
    for t in reversed(order):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t._backward is not None:
            for p, gp in zip(t._parents, t._backward(g), strict=True):
                if gp is not None and p.requires_grad:
                    gp = gp.astype(p.dtype, copy=False)
                    prev = grads.get(id(p))
                    grads[id(p)] = gp if prev is None else prev + gp
        elif t.grad is None:
            t.grad = np.array(g)
        else:
            t.grad += g
