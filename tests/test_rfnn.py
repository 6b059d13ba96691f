import random
from fractions import Fraction

import pytest

from mugnn.rfnn import (
    CircuitBuilder,
    Rfnn,
    add_net,
    and_net,
    clip_net,
    const_net,
    gadgets,
    geq_net,
    gt_net,
    mux_net,
    not_net,
    or_net,
    rfnn_eval,
    sub_net,
)


def clip_ref(x):
    return max(0, min(1, x))


def test_identity_network():
    ident = Rfnn(layers=(((((0, 1),), ((1, 1),)), (0, 0)),), input_width=2)
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


def test_add_sub_const():
    assert rfnn_eval(add_net(), [3, 4]) == [7]
    assert rfnn_eval(sub_net(), [3, 4]) == [-1]
    assert rfnn_eval(const_net(9), [123]) == [9]


def test_gadgets_dict_complete():
    g = gadgets()
    assert set(g) == {"clip", "gt", "geq", "and", "or", "not", "mux", "add", "sub", "const"}


def test_eval_width_mismatch():
    with pytest.raises(ValueError):
        rfnn_eval(clip_net(), [1, 2])


def test_rational_inputs_exact():
    net = add_net()
    got = rfnn_eval(net, [Fraction(1, 3), Fraction(1, 6)])
    assert got == [Fraction(1, 2)]


def test_builder_relu_sharing():
    b = CircuitBuilder(2)
    x, y = b.inp(0), b.inp(1)
    e1 = b.relu(x + y - 1)
    e2 = b.relu(x + y - 1)
    assert e1.key() == e2.key()  # hash-consed
    assert len(b.relu_exprs) == 1


def test_builder_eqb():
    b = CircuitBuilder(2)
    net = b.build([b.eqb(b.inp(0), b.inp(1))])
    for a in (0, 1):
        for c in (0, 1):
            assert rfnn_eval(net, [a, c]) == [1 if a == c else 0]


def test_builder_exmux():
    b = CircuitBuilder(4)
    g0, g2, v0, v1 = b.inp(0), b.inp(1), b.inp(2), b.inp(3)
    net = b.build([b.exmux(v0, [(g0, v1), (g2, b.const(0))])])
    # gates mutually exclusive
    for v0v in (0, 1):
        for v1v in (0, 1):
            assert rfnn_eval(net, [0, 0, v0v, v1v]) == [v0v]
            assert rfnn_eval(net, [1, 0, v0v, v1v]) == [v1v]
            assert rfnn_eval(net, [0, 1, v0v, v1v]) == [0]


def test_builder_negative_carry_rejected():
    b = CircuitBuilder(1, nonneg_inputs=False)
    x = b.inp(0)
    deep = b.relu(b.relu(x) - 1)  # level 2; x itself used at level 2 too
    with pytest.raises(ValueError):
        b.build([deep + x])


def test_builder_integer_weights_only():
    b = CircuitBuilder(3)
    out = b.band(b.inp(0), b.bor(b.inp(1), b.inp(2)))
    net = b.build([out, b.clip(b.inp(0) + b.inp(1))])
    for W, bias in net.layers:
        assert all(isinstance(w, int) for row in W for _, w in row)
        assert all(isinstance(w, int) for w in bias)

