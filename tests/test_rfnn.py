import random
from fractions import Fraction

import numpy as np
import pytest

from mugnn.rfnn import (
    CircuitBuilder,
    and_net,
    clip_net,
    geq_net,
    gt_net,
    mux_net,
    not_net,
    or_net,
    rfnn_eval,
)
from nets import from_pairs, same_net


def clip_ref(x):
    return max(0, min(1, x))


def test_identity_network():
    ident = from_pairs((((((0, 1),), ((1, 1),)), (0, 0)),), input_width=2)
    assert rfnn_eval(ident, [3, -4]) == [3, -4]


def test_clip_examples():
    net = clip_net()
    assert rfnn_eval(net, [2]) == [1]
    for x, want in ((-1, 0), (0, 0), (1, 1), (5, 1)):
        assert rfnn_eval(net, [x]) == [want]


def test_clip_range():
    net = clip_net()
    for x in range(-1000, 1001):
        assert rfnn_eval(net, [x]) == [clip_ref(x)]


def test_gt_geq_ranges():
    g = gt_net()
    ge = geq_net()
    rng = random.Random(0)
    for _ in range(2000):
        a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        assert rfnn_eval(g, [a, b]) == [1 if a > b else 0]
        assert rfnn_eval(ge, [a, b]) == [1 if a >= b else 0]


def test_boolean_gates_exhaustive():
    a_net, o_net, n_net = and_net(), or_net(), not_net()
    for a in (0, 1):
        assert rfnn_eval(n_net, [a]) == [1 - a]
        for b in (0, 1):
            assert rfnn_eval(a_net, [a, b]) == [a & b]
            assert rfnn_eval(o_net, [a, b]) == [a | b]


def test_mux_exhaustive():
    m = mux_net()
    for g in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                assert rfnn_eval(m, [g, a, b]) == [a if g else b]


def test_eval_width_mismatch():
    with pytest.raises(ValueError):
        rfnn_eval(clip_net(), [1, 2])


def test_rational_inputs_exact():
    b = CircuitBuilder(2)
    net = b.build([b.inp(0) + b.inp(1)])
    got = rfnn_eval(net, [Fraction(1, 3), Fraction(1, 6)])
    assert got == [Fraction(1, 2)]


def test_builder_relu_sharing():
    b = CircuitBuilder(2)
    x, y = b.inp(0), b.inp(1)
    e1 = b.relu(x + y - 1)
    e2 = b.relu(x + y - 1)
    assert e1.terms == e2.terms  # hash-consed: one atom
    assert len(b.relu_exprs) == 1


def test_builder_eqb():
    b = CircuitBuilder(2)
    net = b.build([b.eqb(b.inp(0), b.inp(1))])
    for a in (0, 1):
        for c in (0, 1):
            assert rfnn_eval(net, [a, c]) == [1 if a == c else 0]


def test_builder_reads_raw_input_after_relu():
    # x is read both under two ReLUs and as it is, so a later level reads an
    # input directly: the output is exact for negative x too.
    b = CircuitBuilder(1)
    x = b.inp(0)
    net = b.build([b.relu(b.relu(x) - 1) + x])
    assert len(net.sizes) == 3
    for v in range(-5, 6):
        assert rfnn_eval(net, [v]) == [max(0, max(0, v) - 1) + v]


def test_builder_emits_atom_dag():
    # relu(x0 + x1) sits at level 1, relu(relu(x0 + x1) - x1) at level 2;
    # the level-2 atom and the output read input x1 directly, and the
    # output reads atoms of both levels.  No row copies a value.
    b = CircuitBuilder(2)
    x0, x1 = b.inp(0), b.inp(1)
    s = b.relu(x0 + x1)
    t = b.relu(s - x1)
    net = b.build([t + s - x1 + 3])
    assert same_net(net, from_pairs((
        ((((0, 1), (1, 1)),), (0,)),
        ((((1, -1), (2, 1)),), (0,)),
        ((((1, -1), (2, 1), (3, 1)),), (3,)),
    ), 2))
    for v0 in range(-3, 4):
        for v1 in range(-3, 4):
            su = max(0, v0 + v1)
            assert rfnn_eval(net, [v0, v1]) == [max(0, su - v1) + su - v1 + 3]


def test_builder_integer_weights_only():
    b = CircuitBuilder(3)
    out = b.band(b.inp(0), b.bor(b.inp(1), b.inp(2)))
    net = b.build([out, b.clip(b.inp(0) + b.inp(1))])
    assert net.nnz.dtype == net.cols.dtype == net.coefs.dtype == net.bias.dtype == np.int64
    for W, bias in net.layers:
        assert all(isinstance(w, int) for row in W for _, w in row)
        assert all(isinstance(w, int) for w in bias)

