"""The padded pillar encoder, kept as the oracle for the row layout.

`padded_decorate` and `padded_pfn_forward` are the encoder as it was
before it dropped the empty slots: they decorate and run the PFN on the
whole [P, S, C] pillar tensor, normalise all P·S slots in train mode and
take a masked max over the slot axis. `transposed_pfn_forward` is the
older PFN that normalised a transposed [1, C_f, P, S] copy instead.
`max_over_axis` is their masked max; the product's max is
`tensor.segment_max`. `relu` is the standalone clamp the transposed PFN
applies after batch norm; the product fuses it into `tensor.batch_norm`.
"""

import numpy as np

from densepillars import tensor as T
from densepillars.encoder import PillarBatch
from densepillars.tensor import Tensor


def relu(a: Tensor) -> Tensor:
    def backward(g):
        return (g * (a.data > 0),)  # subgradient at 0 is 0

    return T.make(np.maximum(a.data, 0), (a,), backward)


def max_over_axis(x: Tensor, axis: int, mask=None) -> Tensor:
    """Max reduction; masked-out slots are excluded, empty groups yield 0.

    Backward routes each gradient to the first kept slot equal to the max."""
    axis = axis % x.data.ndim
    keep = True if mask is None else np.asarray(mask, dtype=bool)
    out = x.data.max(axis=axis, where=keep, initial=-np.inf)
    empty = ~np.isfinite(out)
    out = np.where(empty, 0.0, out).astype(x.dtype)

    def backward(g):
        hit = x.data == np.expand_dims(out, axis)
        if mask is not None:
            hit &= keep
        arg = hit.argmax(axis=axis)  # ties resolve to lowest index
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, np.expand_dims(arg, axis),
                          np.expand_dims(np.where(empty, 0.0, g), axis), axis)
        return (dx,)

    return T.make(out, (x,), backward)


def padded_decorate(batch: PillarBatch, g) -> PillarBatch:
    """[P, S, 4] raw slots -> [P, S, 9] decorated slots, zero past `counts`."""
    p, s, _ = batch.features.shape
    out = np.zeros((p, s, 9), dtype=np.float32)
    if p == 0:
        return PillarBatch(out, batch.coords, batch.counts)
    feats = batch.features.astype(np.float64)
    mask = np.arange(s)[None, :] < batch.counts[:, None]  # [P, S]
    out[:, :, :4] = batch.features

    cnt = np.maximum(batch.counts, 1).astype(np.float64)[:, None]
    mean = (feats[:, :, :3] * mask[:, :, None]).sum(axis=1) / cnt  # [P, 3]
    out[:, :, 4:7] = np.where(
        mask[:, :, None], feats[:, :, :3] - mean[:, None, :], 0.0
    ).astype(np.float32)

    cell_x = g.x_range[0] + (batch.coords[:, 1] + 0.5) * g.pillar_size[0]
    cell_y = g.y_range[0] + (batch.coords[:, 0] + 0.5) * g.pillar_size[1]
    center = np.stack([cell_x, cell_y], axis=1)  # [P, 2]
    out[:, :, 7:9] = np.where(
        mask[:, :, None], feats[:, :, :2] - center[:, None, :], 0.0
    ).astype(np.float32)
    return PillarBatch(out, batch.coords, batch.counts)


def padded_pfn_forward(batch: PillarBatch, weights) -> Tensor:
    """Linear + BN + ReLU on every slot of [P, S, 9], BN seeing the
    [P·S, C_f, 1, 1] view, then the masked max over the slot axis."""
    p, s = batch.features.shape[:2]
    cf = weights.weight.shape[1]
    h = T.linear_map(Tensor(batch.features), weights.weight)  # [P, S, C_f]
    h = T.batch_norm(T.reshape(h, (p * s, cf, 1, 1)), weights.bn, relu=True)
    mask = np.arange(s)[None, :] < batch.counts[:, None]  # [P, S]
    return max_over_axis(T.reshape(h, (p, s, cf)), axis=1, mask=mask[:, :, None])


def transposed_pfn_forward(batch: PillarBatch, weights) -> Tensor:
    """The PFN before the padded one: it transposes the linear map's
    [P, S, C_f] output to [1, C_f, P, S], normalises and clamps it there,
    takes the masked max over the last axis and transposes back."""
    p, s, _ = batch.features.shape
    cf = weights.weight.shape[1]
    h = T.linear_map(Tensor(batch.features), weights.weight)
    h = T.reshape(T.transpose(h, (2, 0, 1)), (1, cf, p, s))
    h = relu(T.batch_norm(h, weights.bn))
    mask = np.arange(s)[None, :] < batch.counts[:, None]
    h = max_over_axis(h, axis=3, mask=mask[None, None, :, :])
    return T.transpose(T.reshape(h, (cf, p)), (1, 0))


def padded_train_stats(x, count, at):
    """`tensor._train_stats(x, count, (count, at))` as it was before it
    summed by tiles: the squared deviations go into a whole [count, C]
    scratch table, mean² in the zero rows, summed by one `np.add.reduce`."""
    div = np.intp(count)
    rows = x.reshape(x.shape[:2])
    mean = np.add.reduce(rows, axis=0)
    np.true_divide(mean, div, out=mean, casting="unsafe")
    sq = np.empty((count, rows.shape[1]), dtype=x.dtype)
    sq[:] = np.square(mean)
    dev = np.subtract(rows, mean)
    sq[at] = np.square(dev, out=dev)
    var = np.add.reduce(sq, axis=0)
    np.true_divide(var, div, out=var, casting="unsafe")
    return mean, var
