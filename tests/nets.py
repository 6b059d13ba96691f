"""Combine networks written as Python pair rows, for the tests.

A network in pair rows is ((rows, bias), ...), one entry per level and the
outputs last, each row a tuple of (atom, coef) pairs: the shape of
`Rfnn.layers`.  `from_pairs` turns it into the flat arrays of an `Rfnn`, and
`same_net` compares two networks field by field, since `==` between their
arrays is elementwise.
"""

import numpy as np

from mugnn.rfnn import Rfnn


def from_pairs(layers, input_width: int) -> Rfnn:
    """The Rfnn with `layers` in pair rows."""
    rows = [row for W, _ in layers for row in W]
    pairs = [pair for row in rows for pair in row]
    return Rfnn(
        tuple(len(W) for W, _ in layers),
        np.array([len(row) for row in rows], dtype=np.int64),
        np.array([a for a, _ in pairs], dtype=np.int64),
        np.array([c for _, c in pairs], dtype=np.int64),
        np.array([b for _, bias in layers for b in bias], dtype=np.int64),
        input_width,
    )


def replace_row(comb: Rfnn, li: int, i: int, row) -> Rfnn:
    """`comb` with row i of level li replaced by the pair row `row`."""
    layers = comb.layers
    W, bias = layers[li]
    layer = (W[:i] + (row,) + W[i + 1 :], bias)
    return from_pairs(layers[:li] + (layer,) + layers[li + 1 :], comb.input_width)


def same_net(a: Rfnn, b: Rfnn) -> bool:
    return (a.sizes, a.input_width) == (b.sizes, b.input_width) and all(
        np.array_equal(x, y) for x, y in zip(a[1:5], b[1:5]))
