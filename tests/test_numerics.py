"""Tests for the dense-net core: reverse pass, gradients, Adam, checkpoints."""

import json

import numpy as np
import pytest

from fm3q import numerics as nm


def make_net(name, sizes, hidden="relu", out="identity"):
    net = nm.DenseNet(name, sizes, hidden_activation=hidden, output_activation=out)
    return net, net.layout()


def test_identity_single_layer_passes_input_through():
    net, layout = make_net("f", (3, 3))
    params = layout.zeros()
    layout.view(params, "f.w0")[:] = np.eye(3)
    x = np.array([0.5, -1.5, 2.0])
    assert np.allclose(net.forward(layout, params, x), x)


def test_abs_activation_takes_elementwise_absolute_value():
    net, layout = make_net("f", (2, 2), out="abs")
    params = layout.zeros()
    layout.view(params, "f.w0")[:] = np.eye(2)
    out = net.forward(layout, params, np.array([-2.0, 3.0]))
    assert np.allclose(out, [2.0, 3.0])


def test_forward_is_pure():
    net, layout = make_net("f", (4, 8, 2))
    params = layout.zeros()
    net.init_into(layout, params, np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=4)
    assert np.array_equal(net.forward(layout, params, x), net.forward(layout, params, x))


def test_forward_rejects_dimension_mismatch_and_nonfinite():
    net, layout = make_net("f", (3, 2))
    params = layout.zeros()
    with pytest.raises(ValueError, match="width"):
        net.forward(layout, params, np.zeros(4))
    with pytest.raises(ValueError, match="non-finite"):
        net.forward(layout, params, np.array([1.0, np.nan, 0.0]))


def net_gradient(net, layout, params, x):
    """Flat gradient of sum(net(x)) from the cached forward and `backward`."""
    out, layers = net.forward_cache(layout, params, x)
    grads = layout.zeros()
    nm.backward(net, layout, params, layers, np.ones_like(out), grads)
    return grads


def test_backward_product_rule_scalar_net():
    # f(x) = w * x with zero bias: df/dw = x (the input gradient is never formed)
    net, layout = make_net("f", (1, 1))
    params = layout.zeros()
    layout.view(params, "f.w0")[:] = 2.5
    grads = net_gradient(net, layout, params, np.array([[3.0]]))
    w_off, _ = layout.locate("f.w0")
    b_off, _ = layout.locate("f.b0")
    assert grads[w_off] == pytest.approx(3.0)
    assert grads[b_off] == pytest.approx(1.0)


def test_abs_gradient_at_zero_is_zero():
    net, layout = make_net("f", (1, 1), out="abs")
    params = layout.zeros()  # w = 0 so the preactivation sits exactly on the kink
    assert np.all(net_gradient(net, layout, params, np.array([[5.0]])) == 0.0)


def test_two_layer_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    net, layout = make_net("f", (3, 6, 2), hidden="relu")
    params = layout.zeros()
    net.init_into(layout, params, rng)
    x = rng.normal(size=3)
    assert net.preactivation_margin(layout, params, x) > 1e-4
    assert nm.finite_diff_check(net, params, x, eps=1e-5) <= 1e-4


def test_finite_diff_check_linear_net_is_essentially_exact():
    rng = np.random.default_rng(7)
    net, layout = make_net("f", (4, 3))
    params = layout.zeros()
    net.init_into(layout, params, rng)
    assert nm.finite_diff_check(net, params, rng.normal(size=4), eps=1e-5) <= 1e-9


def test_finite_diff_check_relu_net_away_from_kinks():
    rng = np.random.default_rng(23)
    net, layout = make_net("f", (3, 8, 1), hidden="relu")
    while True:
        params = layout.zeros()
        net.init_into(layout, params, rng)
        x = rng.normal(size=3)
        if net.preactivation_margin(layout, params, x) > 1e-3:
            break
    assert nm.finite_diff_check(net, params, x, eps=1e-5) <= 1e-5


def test_finite_diff_check_skips_abs_kink_probe():
    # w = 0: |w x| probed exactly at the kink; both sides vanish so the
    # coordinate falls under the both-small rule instead of reporting noise.
    net, layout = make_net("f", (1, 1), out="abs")
    params = layout.zeros()
    assert nm.finite_diff_check(net, params, np.array([1.0]), eps=1e-5) == 0.0


def test_finite_diff_check_eps_bounds():
    net, layout = make_net("f", (1, 1))
    with pytest.raises(ValueError):
        nm.finite_diff_check(net, layout.zeros(), np.array([1.0]), eps=1e-2)


def test_elu_backward_matches_finite_differences():
    rng = np.random.default_rng(40)
    net, layout = make_net("f", (3, 5, 2), hidden="elu")
    params = layout.zeros()
    net.init_into(layout, params, rng)
    assert nm.finite_diff_check(net, params, rng.normal(size=3), eps=1e-5) <= 1e-4


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0])
    state = nm.AdamState.for_size(2)
    out = nm.adam_step(params, np.zeros(2), state, lr=1e-3)
    assert np.array_equal(out, params)


def test_adam_constant_gradient_moves_monotonically_against_sign():
    params = np.array([0.0])
    state = nm.AdamState.for_size(1)
    grad = np.array([0.7])
    history = [params[0]]
    for _ in range(100):
        params = nm.adam_step(params, grad, state, lr=1e-2)
        history.append(params[0])
    diffs = np.diff(history)
    assert np.all(diffs < 0.0)


def test_adam_is_deterministic():
    def run():
        params = np.array([0.3, -0.1])
        state = nm.AdamState.for_size(2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            params = nm.adam_step(params, rng.normal(size=2), state, lr=3e-3)
        return params

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradients():
    state = nm.AdamState.for_size(2)
    with pytest.raises(nm.GradientError, match="non-finite"):
        nm.adam_step(np.zeros(2), np.array([1.0, np.inf]), state, lr=1e-3)


def test_params_document_round_trips_bit_exactly():
    rng = np.random.default_rng(9)
    net, layout = make_net("f", (5, 4, 3))
    params = layout.zeros()
    net.init_into(layout, params, rng)
    doc = json.loads(json.dumps(nm.params_document(layout, params)))
    layout2, values = nm.parse_params_document(doc)
    assert layout2.entries == layout.entries
    assert np.array_equal(values, params)


def test_params_document_requires_version():
    net, layout = make_net("f", (2, 2))
    doc = nm.params_document(layout, layout.zeros())
    del doc["version"]
    with pytest.raises(ValueError, match="version"):
        nm.parse_params_document(doc)


def test_layout_entries_partition_exactly():
    with pytest.raises(ValueError, match="partition"):
        nm.ParamLayout((("a", 0, (2,)), ("b", 3, (1,))), 4)
    layout = nm.ParamLayout.build([("a", (2, 3)), ("b", (3,))])
    assert layout.size == 9
    values = np.arange(9.0)
    assert layout.view(values, "b").tolist() == [6.0, 7.0, 8.0]
