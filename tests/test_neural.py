import copy

import numpy as np
import pytest
from scipy.integrate import quad

from hydrosac._kernels import ACTION_MARGIN, _sigmoid, squash_sample
from hydrosac.neural import (
    LINEAR,
    LOG_STD_MAX,
    LOG_STD_MIN,
    RELU,
    Layer,
    Mlp,
    PolicyNet,
    RmspropState,
    mlp_init,
    rmsprop_step,
    squashed_log_prob,
)

FD_STEP = 1e-6


def max_rel_err(analytic, numeric, floor=1e-10):
    a = np.asarray(analytic, dtype=float)
    b = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(a), np.abs(b))
    mask = denom > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a - b)[mask] / denom[mask]))


def fd_gradients(params, loss_fn, h=FD_STEP):
    """Central finite differences of loss_fn() over every entry of params."""
    grads = []
    for arr in params:
        g = np.empty_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            fp = loss_fn()
            arr[idx] = orig - h
            fm = loss_fn()
            arr[idx] = orig
            g[idx] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


class FixedNoise:
    """Stands in for a Generator; always returns the same normal draw."""

    def __init__(self, noise):
        self.noise = np.atleast_1d(np.asarray(noise, dtype=float))

    def standard_normal(self, size):
        assert size == self.noise.shape[0]
        return self.noise.copy()


class TestMlpInit:
    def test_shapes(self):
        net = mlp_init([5, 100, 100, 100, 1], [RELU] * 3 + [LINEAR], np.random.default_rng(0))
        assert [l.weight.shape for l in net.layers] == [(100, 5), (100, 100), (100, 100), (1, 100)]
        assert net.widths == [5, 100, 100, 100, 1]

    def test_final_bound_zero(self):
        net = mlp_init([4, 8, 1], [RELU, LINEAR], np.random.default_rng(0), final_layer_bound=0.0)
        assert np.all(net.layers[-1].weight == 0.0)
        assert np.all(net.layers[-1].bias == 0.0)

    def test_final_bound_respected(self):
        net = mlp_init([4, 8, 1], [RELU, LINEAR], np.random.default_rng(0), final_layer_bound=3e-3)
        assert np.max(np.abs(net.layers[-1].weight)) <= 3e-3
        assert np.max(np.abs(net.layers[0].weight)) <= 1.0 / np.sqrt(4)

    def test_same_seed_bit_identical(self):
        n1 = mlp_init([3, 7, 1], [RELU, LINEAR], np.random.default_rng(11))
        n2 = mlp_init([3, 7, 1], [RELU, LINEAR], np.random.default_rng(11))
        for a, b in zip(n1.parameters(), n2.parameters()):
            assert np.array_equal(a, b)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            mlp_init([5], [RELU], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_init([5, 0, 1], [RELU, LINEAR], np.random.default_rng(0))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="tanh"):
            mlp_init([3, 4, 1], [RELU, "tanh"], np.random.default_rng(0))
        with pytest.raises(ValueError, match="tanh"):
            Layer(np.eye(2), np.zeros(2), "tanh")


class TestFlatParameters:
    def test_layer_arrays_are_views_of_params(self):
        net = mlp_init([3, 4, 2], [RELU, LINEAR], np.random.default_rng(0))
        assert net.params.size == 3 * 4 + 4 + 4 * 2 + 2
        assert np.array_equal(
            net.params, np.concatenate([p.ravel() for p in net.parameters()]))
        net.params[:] = np.arange(net.params.size)
        assert net.layers[0].wt[0, 1] == 1.0
        assert net.layers[1].bias[1] == net.params.size - 1

    def test_copy_owns_its_vector(self):
        net = mlp_init([3, 4, 2], [RELU, LINEAR], np.random.default_rng(0))
        twin = copy.deepcopy(net)
        assert np.array_equal(twin.params, net.params)
        for layer in twin.layers:
            assert np.shares_memory(layer.wt, twin.params)
        twin.params += 1.0
        assert not np.shares_memory(twin.params, net.params)
        assert not np.array_equal(twin.params, net.params)

    def test_policy_packs_trunk_and_heads(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(0), head_bound=0.1)
        nets = (pol.trunk, pol.mean_head, pol.log_std_head)
        assert pol.params.size == sum(n.params.size for n in nets)
        assert np.array_equal(
            pol.params, np.concatenate([p.ravel() for p in pol.parameters()]))
        for net in nets:
            assert np.shares_memory(net.params, pol.params)
            assert np.shares_memory(net.grads, pol.grads)


class TestForward:
    def test_zero_network(self):
        net = mlp_init([3, 4, 1], [RELU, LINEAR], np.random.default_rng(0), final_layer_bound=0.0)
        for layer in net.layers:
            layer.wt[...] = 0.0
            layer.bias[...] = 0.0
        assert net.forward(np.ones((1, 3))) == np.zeros((1, 1))

    def test_single_linear_layer(self):
        net = Mlp([Layer(np.array([[2.0]]), np.array([1.0]), LINEAR)])
        assert net.forward(np.array([[3.0]]))[0, 0] == 7.0

    def test_relu_propagation(self):
        net = Mlp([Layer(np.eye(2), np.zeros(2), RELU)])
        out = net.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_relu_idempotent_on_nonnegative(self):
        net = Mlp([Layer(np.eye(3), np.zeros(3), RELU)])
        x = np.array([[0.0, 1.5, 7.0]])
        once = net.forward(x)
        twice = net.forward(once)
        assert np.array_equal(once, twice)

    def test_batch_matches_single(self):
        net = mlp_init([4, 6, 2], [RELU, LINEAR], np.random.default_rng(1), final_layer_bound=0.4)
        xs = np.random.default_rng(2).random((5, 4))
        batch = net.forward(xs)
        for i in range(5):
            assert np.allclose(net.forward(xs[i:i + 1])[0], batch[i], rtol=1e-15, atol=0)

    def test_dimension_mismatch(self):
        net = mlp_init([4, 6, 2], [RELU, LINEAR], np.random.default_rng(1))
        with pytest.raises(ValueError):
            net.forward(np.ones((1, 3)))


class TestBackward:
    def test_zero_output_grad(self):
        net = mlp_init([3, 5, 1], [RELU, LINEAR], np.random.default_rng(0), final_layer_bound=0.3)
        net.grads[:] = 1.0  # stale values must be overwritten
        net.forward(np.ones((1, 3)))
        net.backward(np.zeros((1, 1)))
        assert np.all(net.grads == 0)
        net.forward(np.ones((1, 3)))
        gin = net.input_grad(np.zeros((1, 1)))
        assert np.all(gin == 0)

    def test_single_linear_layer_grads(self):
        net = Mlp([Layer(np.array([[2.0]]), np.array([1.0]), LINEAR)])
        x = np.array([[3.0]])
        net.forward(x)
        net.backward(np.array([[1.0]]))
        dw, db = net.grads
        assert dw == 3.0  # d/dW = x
        assert db == 1.0  # d/db = 1
        net.forward(x)
        gin = net.input_grad(np.array([[1.0]]))
        assert gin[0, 0] == 2.0  # d/dx = W

    def test_requires_cached_forward(self):
        # both reverse passes need a forward first, and each one consumes it
        net = mlp_init([3, 5, 1], [RELU, LINEAR], np.random.default_rng(0))
        for reverse in (net.backward, net.input_grad):
            with pytest.raises(RuntimeError):
                reverse(np.ones((1, 1)))
            net.forward(np.ones((1, 3)))
            reverse(np.ones((1, 1)))
            with pytest.raises(RuntimeError):
                reverse(np.ones((1, 1)))

    def test_matches_finite_differences(self):
        # finite-difference oracle on a random 5 -> 3 -> 1 network
        rng = np.random.default_rng(14)
        net = mlp_init([5, 3, 1], [RELU, LINEAR], rng, final_layer_bound=0.5)
        x = rng.random((1, 5))

        net.forward(x)
        net.backward(np.array([[1.0]]))
        analytic = net.grads.copy()
        fd = fd_gradients(net.parameters(), lambda: float(net.forward(x)[0, 0]))
        assert max_rel_err(analytic, np.concatenate([g.ravel() for g in fd])) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        net = mlp_init([4, 6, 1], [RELU, LINEAR], rng, final_layer_bound=0.5)
        x = rng.random((1, 4))
        net.forward(x)
        net.backward(np.array([[1.0]]))
        net.forward(x)
        gin = net.input_grad(np.array([[1.0]]))
        fd = np.empty(4)
        for i in range(4):
            xp = x.copy(); xp[0, i] += FD_STEP
            xm = x.copy(); xm[0, i] -= FD_STEP
            fd[i] = (net.forward(xp)[0, 0] - net.forward(xm)[0, 0]) / (2 * FD_STEP)
        assert max_rel_err(gin[0], fd) < 1e-4

    def test_batch_input_grad_matches_finite_differences(self):
        # a deep batch case: relu layers wider than 1 and a width-1 output
        rng = np.random.default_rng(16)
        net = mlp_init([6, 9, 7, 1], [RELU, RELU, LINEAR], rng, final_layer_bound=0.5)
        xs = rng.random((3, 6))
        weights = rng.standard_normal((3, 1))
        net.forward(xs)
        gin = net.input_grad(weights)
        assert gin.shape == xs.shape
        loss = lambda x: float(np.sum(net.forward(x) * weights))
        fd = np.empty_like(xs)
        for idx in np.ndindex(*xs.shape):
            xp = xs.copy(); xp[idx] += FD_STEP
            xm = xs.copy(); xm[idx] -= FD_STEP
            fd[idx] = (loss(xp) - loss(xm)) / (2 * FD_STEP)
        assert max_rel_err(gin, fd) < 1e-4

    def test_input_grad_leaves_grads_untouched(self):
        rng = np.random.default_rng(17)
        net = mlp_init([6, 9, 1], [RELU, LINEAR], rng, final_layer_bound=0.5)
        sentinel = rng.standard_normal(net.grads.size)
        net.grads[:] = sentinel
        net.forward(rng.random((4, 6)))
        net.input_grad(rng.standard_normal((4, 1)))
        assert net.grads.tobytes() == sentinel.tobytes()

    def test_backward_to_input_matches_input_grad(self):
        rng = np.random.default_rng(18)
        net = mlp_init([6, 9, 1], [RELU, LINEAR], rng, final_layer_bound=0.5)
        xs, g = rng.random((4, 6)), rng.standard_normal((4, 1))
        net.forward(xs)
        assert net.backward(g) is None
        grads = net.grads.copy()
        net.forward(xs)
        gin = net.backward(g, to_input=True)
        assert net.grads.tobytes() == grads.tobytes()
        net.forward(xs)
        assert gin.tobytes() == net.input_grad(g).tobytes()

    def test_zero_pre_activation_gets_zero_gradient(self):
        # unit 0 sits exactly at the kink, unit 1 is active, unit 2 is off
        net = Mlp([Layer(np.eye(3), np.array([0.0, 0.0, -1.0]), RELU),
                   Layer(np.ones((3, 1)), np.zeros(1), LINEAR)])
        x = np.array([[0.0, 2.0, 0.5], [0.0, 1.0, 0.0]])
        g = np.ones((2, 1))
        net.forward(x)
        gin = net.input_grad(g)
        assert np.array_equal(gin, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        net.forward(x)
        net.backward(g)
        dw_hidden = net.grads[:9].reshape(3, 3)  # (in, out)
        assert np.all(dw_hidden[:, [0, 2]] == 0.0)
        assert np.array_equal(net.grads[9:12], [0.0, 2.0, 0.0])  # hidden biases

    def test_width_one_broadcast_equals_gemm_bits(self):
        rng = np.random.default_rng(19)
        for rows, width in ((1, 5), (100, 100), (37, 6)):
            g = rng.standard_normal((rows, 1))
            wt = rng.standard_normal((width, 1))
            gemm = g @ np.ascontiguousarray(wt.T)
            assert (g * wt[:, 0]).tobytes() == gemm.tobytes()
            net = Mlp([Layer(wt, np.zeros(1), LINEAR)])
            net.forward(rng.random((rows, width)))
            assert net.input_grad(g).tobytes() == gemm.tobytes()


def per_array_rmsprop(param, grad, acc, lr, rho, eps):
    """The RMSprop formula applied to one array at a time."""
    acc *= rho
    acc += (1.0 - rho) * grad * grad
    param -= lr * grad / (np.sqrt(acc) + eps)


class TestRmsprop:
    def test_zero_grad_is_identity(self):
        p = np.array([1.0, -2.0])
        state = RmspropState([p])
        rmsprop_step(p, np.zeros(2), state, lr=0.1)
        assert np.array_equal(p, [1.0, -2.0])

    def test_fresh_state_step_magnitude(self):
        # acc = 0.01 g^2, step = lr*g/(0.1*|g| + eps) ~ 10*lr*sign(g) for g >> eps
        g = 3.0
        p = np.array([0.0])
        state = RmspropState([p], rho=0.99, eps=1e-8)
        rmsprop_step(p, np.array([g]), state, lr=1e-3)
        expected = -1e-3 * g / (np.sqrt(0.01 * g * g) + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)
        assert p[0] == pytest.approx(-1e-2, rel=1e-6)

    def test_deterministic(self):
        def run():
            p = np.array([[1.0, 2.0], [3.0, 4.0]])
            state = RmspropState([p])
            for k in range(5):
                rmsprop_step(p.reshape(-1), np.full(4, 0.3 * (k + 1)), state, lr=0.01)
            return p
        assert np.array_equal(run(), run())

    def test_lr_zero_is_identity_with_state_update(self):
        p = np.array([1.0])
        state = RmspropState([p])
        rmsprop_step(p, np.array([5.0]), state, lr=0.0)
        assert p[0] == 1.0
        assert state.acc[0] > 0.0

    def test_accumulator_nonnegative(self):
        p = np.random.default_rng(0).random((3, 3))
        state = RmspropState([p])
        for _ in range(20):
            g = np.random.default_rng(1).standard_normal((3, 3))
            rmsprop_step(p.reshape(-1), g.reshape(-1), state, lr=1e-3)
        assert np.all(state.acc >= 0.0)

    def test_size_mismatch_rejected(self):
        p = np.zeros(3)
        state = RmspropState([p])
        with pytest.raises(ValueError):
            rmsprop_step(np.zeros(4), np.zeros(4), state, lr=0.1)
        with pytest.raises(ValueError):
            rmsprop_step(p, np.zeros(2), state, lr=0.1)

    def test_packed_step_matches_per_array_formula_bit_for_bit(self):
        rng = np.random.default_rng(30)
        net = mlp_init([5, 7, 7, 1], [RELU, RELU, LINEAR], rng, final_layer_bound=0.5)
        arrays = [p.copy() for p in net.parameters()]
        accs = [np.zeros_like(p) for p in arrays]
        state = RmspropState(net.parameters(), rho=0.9, eps=1e-8)
        for step in range(6):
            grads = rng.standard_normal(net.params.size) * 10.0 ** (step - 3)
            net.grads[:] = grads
            rmsprop_step(net.params, net.grads, state, lr=3e-3)
            start = 0
            for p, a in zip(arrays, accs):
                g = grads[start:start + p.size].reshape(p.shape)
                per_array_rmsprop(p, g, a, 3e-3, 0.9, 1e-8)
                start += p.size
            for mine, ref in zip(net.parameters(), arrays):
                assert np.array_equal(mine, ref)
            for mine, ref in zip(state.arrays, accs):
                assert mine.shape == ref.shape
                assert np.array_equal(mine, ref)

    def test_load_checks_each_array_shape(self):
        p = [np.zeros((2, 3)), np.zeros(3)]
        state = RmspropState(p)
        state.load([np.ones((2, 3)), np.full(3, 2.0)])
        assert np.array_equal(state.acc, [1.0] * 6 + [2.0] * 3)
        with pytest.raises(ValueError):
            state.load([np.ones((3, 2)), np.ones(3)])
        with pytest.raises(ValueError):
            state.load([np.ones((2, 3))])


class TestPolicyForward:
    def test_zero_heads(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(0), head_bound=0.0)
        mean, log_std = pol.forward(np.ones((1, 5)))
        assert mean == 0.0
        assert log_std == 0.0

    def test_log_std_clamped_high(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(0), head_bound=0.0)
        pol.log_std_head.layers[0].bias[...] = 5.0
        _, log_std = pol.forward(np.ones((1, 5)))
        assert log_std == LOG_STD_MAX

    def test_log_std_clamped_low(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(0), head_bound=0.0)
        pol.log_std_head.layers[0].bias[...] = -30.0
        _, log_std = pol.forward(np.ones((1, 5)))
        assert log_std == LOG_STD_MIN


class TestPolicySample:
    def test_near_zero_std_gives_squashed_mean(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(0), head_bound=0.0)
        pol.log_std_head.layers[0].bias[...] = -30.0  # clamps to -20, std ~ 2e-9
        action, _, _ = pol.sample(np.ones((1, 5)), np.random.default_rng(1))
        assert action == pytest.approx(0.5, abs=1e-8)

    def test_same_seed_identical(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(3), head_bound=0.1)
        obs = np.random.default_rng(4).random((1, 5))
        s1 = pol.sample(obs, np.random.default_rng(7))
        s2 = pol.sample(obs, np.random.default_rng(7))
        assert s1 == s2

    def test_action_strictly_inside_unit_interval(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(5), head_bound=0.1)
        pol.mean_head.layers[0].bias[...] = 500.0  # drive the sigmoid to saturation
        rng = np.random.default_rng(0)
        action, log_prob, _ = pol.sample(np.ones((1, 5)), rng)
        assert 0.0 < action < 1.0
        assert np.isfinite(log_prob)

    def test_log_prob_finite_over_random_draws(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(6), head_bound=2.0)
        rng = np.random.default_rng(1)
        for _ in range(500):
            a, lp, _ = pol.sample(rng.random((1, 5)), rng)
            assert 0.0 < a < 1.0
            assert np.isfinite(lp)

    def test_sample_log_prob_matches_density_function(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(8), head_bound=0.5)
        obs = np.random.default_rng(9).random((1, 5))
        rng = np.random.default_rng(10)
        action, log_prob, _ = pol.sample(obs, rng)
        mean, log_std = pol.forward(obs)
        assert log_prob == pytest.approx(
            squashed_log_prob(mean, log_std, action)[0], abs=1e-9
        )

    def test_density_normalizes(self):
        # quadrature oracle for the squashed density (floor perturbs < 1e-3)
        for mean, log_std in [(0.0, 0.0), (1.0, -1.0), (-2.0, 0.5)]:
            total, _ = quad(
                lambda a: float(np.exp(squashed_log_prob(mean, log_std, a))),
                0.0, 1.0, limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-3)


class TestPolicyMeanAction:
    def test_zero_policy(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(0), head_bound=0.0)
        assert pol.mean_action(np.ones((1, 5))) == 0.5

    def test_large_mean_saturates_toward_one(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(0), head_bound=0.0)
        pol.mean_head.layers[0].bias[...] = 50.0
        assert pol.mean_action(np.ones((1, 5))) == pytest.approx(1.0, abs=1e-9)

    def test_matches_minimal_std_samples(self):
        pol = PolicyNet.init(5, 8, np.random.default_rng(2), head_bound=0.3)
        pol.log_std_head.layers[0].bias[...] = -30.0  # clamp to min std
        obs = np.random.default_rng(3).random((1, 5))
        rng = np.random.default_rng(4)
        deterministic = pol.mean_action(obs)
        for _ in range(20):
            action, _, _ = pol.sample(obs, rng)
            assert action == pytest.approx(deterministic, abs=1e-4)


def two_branch_sigmoid(z):
    """The sigmoid as first written: each branch on its own elements, then np.clip."""
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, ACTION_MARGIN, 1.0 - ACTION_MARGIN)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


TINY = np.finfo(float).smallest_subnormal
SIGMOID_GRID = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 1e3, -1e3, 800.0, -800.0],
    [np.nan, -np.nan],  # a NaN from an invalid operation has the sign bit set
    [TINY, -TINY, 1e-310, -1e-310, np.finfo(float).tiny, -np.finfo(float).tiny],
    np.linspace(-40.0, 40.0, 80_001),  # both clip edges lie near |z| = 27.6
    np.random.default_rng(0).standard_normal(10_000) * 30.0,
])


class TestSigmoidAndMeanAction:
    def test_bits_equal_two_branch_formula(self):
        assert np.array_equal(bits(_sigmoid(SIGMOID_GRID)), bits(two_branch_sigmoid(SIGMOID_GRID)))

    def test_no_floating_point_errors(self):
        # exp underflows past |z| ~ 708 here as in the two-branch formula,
        # which numpy ignores by default; everything else raises
        with np.errstate(all="raise"):
            _sigmoid(SIGMOID_GRID[~(np.abs(SIGMOID_GRID) > 700.0)])  # NaN stays in
        with np.errstate(all="raise", under="ignore"):
            _sigmoid(SIGMOID_GRID)

    @pytest.mark.parametrize("batch", [1, 100])
    def test_mean_action_is_squash_sample_without_noise(self, batch):
        pol = PolicyNet.init(5, 8, np.random.default_rng(31), head_bound=2.0)
        obs = np.random.default_rng(32).standard_normal((batch, 5)) * 30.0
        mean, _ = pol.forward(obs)
        zeros = np.zeros_like(mean)
        expected = squash_sample(mean, zeros, zeros, pol.prob_floor)[0]
        assert np.array_equal(bits(pol.mean_action(obs)), bits(expected))
        if batch == 1:  # a one-row batch and a one-row stack run the same product
            assert np.array_equal(bits(pol.mean_action(obs[:, None])), bits(expected))

    def test_one_row_stack_is_row_i_of_the_stack(self):
        # acting plays many years as one (n, 1, 5) stack; each row must get the
        # bits it gets alone, in a one-row stack or a one-row batch, and draw
        # its noise from its own generator. A wide head scale clamps the
        # log-std below, above and not at all.
        pol = PolicyNet.init(5, 8, np.random.default_rng(33), head_bound=2.0)
        stack = np.random.default_rng(34).standard_normal((40, 1, 5)) * 30.0
        rngs = [np.random.default_rng(seed) for seed in range(40)]
        rows = pol.sample(stack, rngs)
        means = pol.mean_action(stack)
        for i, obs in enumerate(stack):
            alone, batch = np.random.default_rng(i), np.random.default_rng(i)
            one = pol.sample(stack[i:i + 1], [alone])
            assert [int(bits(a[i])) for a in rows] == [int(bits(v[0])) for v in one]
            batch_one = pol.sample(obs, batch)
            assert [int(bits(v[0])) for v in batch_one] == [int(bits(v[0])) for v in one]
            assert rngs[i].bit_generator.state == alone.bit_generator.state
            assert alone.bit_generator.state == batch.bit_generator.state
            assert int(bits(means[i])) == int(bits(pol.mean_action(stack[i:i + 1])[0]))
            assert int(bits(means[i])) == int(bits(pol.mean_action(obs)[0]))

    @pytest.mark.parametrize("act", ["sample", "mean_action"])
    def test_acting_leaves_nothing_to_backpropagate(self, act):
        pol = PolicyNet.init(5, 6, np.random.default_rng(27), head_bound=0.5)
        batch = np.random.default_rng(28).random((3, 5))
        pol.sample(batch, np.random.default_rng(29))  # caches that acting must drop
        if act == "sample":
            pol.sample(batch[:, None], [np.random.default_rng(seed) for seed in range(3)])
        else:
            pol.mean_action(batch[:, None])
        with pytest.raises(RuntimeError, match="backward_sample called without a cached sample"):
            pol.backward_sample(np.ones(3), np.ones(3))
        with pytest.raises(RuntimeError, match="without a cached forward pass"):
            pol.trunk.backward(np.ones((3, 6)))


class TestPolicyGradients:
    def test_sample_path_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        pol = PolicyNet.init(5, 6, rng, head_bound=0.5)
        obs = rng.random((1, 5))
        noise = FixedNoise(rng.standard_normal(1))
        c_action, c_log_prob = 0.8, -0.4

        def loss():
            a, lp, _ = pol.sample(obs, noise)
            return c_action * a[0] + c_log_prob * lp[0]

        pol.sample(obs, noise)
        pol.backward_sample(np.array([c_action]), np.array([c_log_prob]))
        analytic = pol.grads.copy()
        fd = fd_gradients(pol.parameters(), loss)
        assert max_rel_err(analytic, np.concatenate([g.ravel() for g in fd])) < 1e-4

    def test_clamped_log_std_blocks_gradient(self):
        pol = PolicyNet.init(5, 6, np.random.default_rng(22), head_bound=0.1)
        pol.log_std_head.layers[0].bias[...] = 10.0  # clamped to +2 everywhere
        obs = np.random.default_rng(23).random((1, 5))
        pol.grads[:] = 1.0  # stale values must be overwritten
        pol.sample(obs, FixedNoise([0.3]))
        pol.backward_sample(np.array([0.0]), np.array([1.0]))
        assert np.all(pol.log_std_head.grads == 0.0)
        assert np.any(pol.trunk.grads != 0.0)

    def test_mean_action_between_forward_and_backward(self):
        # mean_action refreshes only the trunk and mean head, with the same
        # values for the same obs; the log-std clamp still blocks its gradient
        pol = PolicyNet.init(5, 6, np.random.default_rng(22), head_bound=0.1)
        pol.log_std_head.layers[0].bias[...] = 10.0  # clamped to +2 everywhere
        obs = np.random.default_rng(23).random((1, 5))
        pol.grads[:] = 1.0
        pol.sample(obs, FixedNoise([0.3]))
        pol.mean_action(obs)
        pol.backward_sample(np.array([0.0]), np.array([1.0]))
        assert np.all(pol.log_std_head.grads == 0.0)
        assert np.any(pol.trunk.grads != 0.0)

    def test_mean_action_leaves_sample_gradients_unchanged(self):
        pol = PolicyNet.init(5, 6, np.random.default_rng(24), head_bound=0.5)
        obs = np.random.default_rng(25).random((7, 5))
        noise = FixedNoise(np.random.default_rng(26).standard_normal(7))
        g_action, g_log_prob = np.linspace(-1.0, 1.0, 7), np.full(7, 0.3)
        pol.sample(obs, noise)
        pol.backward_sample(g_action, g_log_prob)
        plain = pol.grads.copy()
        pol.sample(obs, noise)
        pol.mean_action(obs)
        pol.backward_sample(g_action, g_log_prob)
        assert np.array_equal(bits(pol.grads), bits(plain))
