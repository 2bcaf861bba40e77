"""Unit and gradient-check tests for the autograd Tensor engine."""

import gc

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import Tensor, as_tensor, concat, parameter, stack
from repro.nn.tensor import _released


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of scalar fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    x_flat = x.reshape(-1)
    for i in range(x_flat.size):
        orig = x_flat[i]
        x_flat[i] = orig + eps
        hi = fn(x)
        x_flat[i] = orig - eps
        lo = fn(x)
        x_flat[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(build, x0: np.ndarray, atol: float = 1e-5) -> None:
    """Assert autograd gradient matches numerical gradient of `build`."""
    t = parameter(x0.copy())
    out = build(t)
    out.backward()
    expected = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x0.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestBasicOps:
    def test_add_values(self):
        assert (Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data.tolist() == [4.0, 6.0]

    def test_scalar_promotion(self):
        assert (Tensor([1.0]) + 2).data.tolist() == [3.0]
        assert (2 * Tensor([3.0])).data.tolist() == [6.0]
        assert (1 - Tensor([0.25])).data.tolist() == [0.75]
        assert (1 / Tensor([4.0])).data.tolist() == [0.25]

    def test_item_scalar_only(self):
        assert Tensor(5.0).item() == 5.0
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_graph(self):
        p = parameter([1.0, 2.0])
        d = p.detach()
        assert not d.requires_grad
        assert d.data is p.data

    def test_backward_requires_scalar(self):
        p = parameter([1.0, 2.0])
        with pytest.raises(ShapeError):
            (p * 2).backward()

    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(3.0).backward()


class TestGradients:
    def test_add_mul(self):
        check_gradient(lambda t: ((t * 3.0 + 1.0) * t).sum(), np.array([1.0, -2.0, 0.5]))

    def test_div(self):
        check_gradient(lambda t: (t / 2.0 + 3.0 / t).sum(), np.array([1.0, 2.0, -1.5]))

    def test_pow(self):
        check_gradient(lambda t: (t**3).sum(), np.array([1.0, -2.0, 0.5]))

    def test_exp_log(self):
        check_gradient(lambda t: (t.exp() + (t + 3.0).log()).sum(), np.array([0.1, 0.5, -0.2]))

    def test_tanh_sigmoid_relu(self):
        x = np.array([-1.0, 0.3, 2.0])
        check_gradient(lambda t: t.tanh().sum(), x)
        check_gradient(lambda t: t.sigmoid().sum(), x)
        check_gradient(lambda t: t.relu().sum(), np.array([-1.0, 0.3, 2.0]))

    def test_abs_clip_min(self):
        check_gradient(lambda t: t.abs().sum(), np.array([-1.0, 0.5, 2.0]))
        check_gradient(lambda t: t.clip_min(0.0).sum(), np.array([-1.0, 0.5, 2.0]))

    def test_matmul_2d(self):
        a0 = np.arange(6, dtype=np.float64).reshape(2, 3) / 3.0
        b = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4) / 5.0)
        check_gradient(lambda t: (t @ b).sum(), a0)

    def test_matmul_grad_right(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        b0 = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        p = parameter(b0.copy())
        (a @ p).sum().backward()
        expected = numeric_grad(lambda arr: float((a.data @ arr).sum()), b0.copy())
        np.testing.assert_allclose(p.grad, expected, atol=1e-5)

    def test_vec_matmul(self):
        w = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        check_gradient(lambda t: (t @ w).sum(), np.array([0.5, -1.0]))

    def test_transpose(self):
        check_gradient(lambda t: (t.T @ Tensor(np.ones((2, 2)))).sum(),
                       np.arange(4, dtype=np.float64).reshape(2, 2))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(3, 2) * 2.0).sum(),
                       np.arange(6, dtype=np.float64).reshape(2, 3))

    def test_getitem_gather_accumulates(self):
        p = parameter(np.ones((4, 2)))
        out = p[np.array([0, 0, 2])].sum()
        out.backward()
        np.testing.assert_allclose(p.grad, [[2, 2], [0, 0], [1, 1], [0, 0]])

    def test_sum_axis_keepdims(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), x.copy())
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), x.copy())

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(),
                       np.arange(6, dtype=np.float64).reshape(2, 3))

    def test_max(self):
        check_gradient(lambda t: t.max(), np.array([1.0, 5.0, 3.0]))

    def test_broadcast_add_bias(self):
        b0 = np.array([0.5, -0.5])
        x = Tensor(np.ones((3, 2)))
        p = parameter(b0.copy())
        ((x + p) ** 2).sum().backward()
        expected = numeric_grad(lambda arr: float(((x.data + arr) ** 2).sum()), b0.copy())
        np.testing.assert_allclose(p.grad, expected, atol=1e-5)

    def test_diamond_graph_accumulation(self):
        # y = x*x used twice downstream: gradient must accumulate once per path.
        p = parameter([2.0])
        y = p * p
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(p.grad, [8.0])

    def test_grad_accumulates_across_backward_calls(self):
        p = parameter([1.0])
        (p * 2.0).sum().backward()
        (p * 2.0).sum().backward()
        np.testing.assert_allclose(p.grad, [4.0])
        p.zero_grad()
        assert p.grad is None


def _graph(p: Tensor) -> tuple[Tensor, list[Tensor]]:
    """A small graph through every differentiable op; returns (loss, interior nodes)."""
    h = (Tensor(np.ones((2, 3))) @ p.T).tanh()
    g = concat([h.sigmoid(), (h * h).exp()], axis=1)
    z = stack([g.relu(), g.abs()]).reshape(-1)[np.array([0, 2, 5])]
    loss = (z.clip_min(0.1).log() / 2.0 - z ** 2).max() + z.mean()
    return loss, [h, g, z, loss]


class TestGraphRelease:
    def test_backward_releases_interior_nodes_keeps_leaf_grad(self):
        p = parameter(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
        loss, interior = _graph(p)
        loss.backward()
        assert p.grad is not None and p.grad.shape == (2, 3)
        assert np.any(p.grad != 0)
        for node in interior:
            assert node._parents == ()
            assert node._backward_fn is _released
            assert node.grad is None
        # Forward values survive the release.
        assert np.isfinite(loss.item())

    def test_second_backward_raises(self):
        p = parameter([1.0, 2.0])
        loss = (p * p).sum()
        loss.backward()
        before = p.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        np.testing.assert_array_equal(p.grad, before)

    def test_backward_through_released_interior_node_raises(self):
        p = parameter([1.0, 2.0])
        y = p * 3.0
        y.sum().backward()
        before = p.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            (y * 2.0 + p).sum().backward()
        np.testing.assert_array_equal(p.grad, before)

    @pytest.mark.parametrize("backpropagate", [True, False])
    def test_dropped_graph_freed_by_refcount(self, backpropagate):
        # With the cyclic collector off, only refcounting can free the
        # graph; whatever it leaves behind, the collector then finds
        # unreachable (kept in gc.garbage by DEBUG_SAVEALL).
        p = parameter(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            loss, interior = _graph(p)
            if backpropagate:
                loss.backward()
            del loss, interior
            gc.collect()
            assert [o for o in gc.garbage if isinstance(o, Tensor)] == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()


class TestConcatStack:
    def test_concat_values_and_grads(self):
        a = parameter([1.0, 2.0])
        b = parameter([3.0])
        out = concat([a, b]) * Tensor([1.0, 10.0, 100.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 10.0])
        np.testing.assert_allclose(b.grad, [100.0])

    def test_concat_axis1(self):
        a = parameter(np.ones((2, 2)))
        b = parameter(np.ones((2, 3)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])

    def test_stack(self):
        a = parameter([1.0, 2.0])
        b = parameter([3.0, 4.0])
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        (out * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])

    def test_stack_empty_raises(self):
        with pytest.raises(ValueError):
            stack([])


def test_as_tensor_passthrough():
    t = Tensor([1.0])
    assert as_tensor(t) is t
    assert as_tensor([1.0, 2.0]).shape == (2,)
