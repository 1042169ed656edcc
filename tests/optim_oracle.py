"""The whole-array AdamW step, kept as the oracle for the sliced one.

`adamw_step` is `optim.adamw_step` as it was before it updated each
parameter a slice at a time in two reused scratch buffers: every line
below allocates temporaries the size of the parameter.
"""

import numpy as np

from densepillars.optim import BETA1, BETA2, EPS


def adamw_step(params, state):
    state.t += 1
    t = state.t
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.data -= state.lr * state.weight_decay * p.data
