"""Dense feed-forward networks with hand-written backpropagation.

Everything is float64. An Mlp takes and returns row batches only:
forward maps (rows, in) to (rows, out) with one matrix product per layer,
and backward and input_grad take a (rows, out) gradient and return a
(rows, in) one. A (rows, 1, in) stack maps to (rows, 1, out) with one
matrix-vector product per row, the bits a one-row batch gets; that is
how acting runs, and it leaves no cache, since no reverse pass follows.

Each network keeps all of its weights and biases in one contiguous vector,
`params`; every layer's arrays are views into it. A matching vector,
`grads`, receives the parameter gradients, so an optimizer step is a single
elementwise chain over one vector. An Mlp's forward caches only the layer
inputs and the final output; a ReLU output is positive exactly where its
pre-activation is, so it doubles as the backward mask. Each reverse pass
computes only what its caller reads: `backward` fills `grads`, `input_grad`
returns the gradient with respect to the input (needed to push Q gradients
through actions). The policy network adds a squashed-Gaussian head pair on
top of a shared trunk: it emits a mean and a clamped log standard
deviation, samples with reparameterized noise, and squashes through a
sigmoid so actions stay in (0, 1).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as K

RELU = "relu"
LINEAR = "linear"
ACTIVATIONS = (RELU, LINEAR)

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

# Additive floor inside the squash-correction logarithm; keeps log
# probabilities finite when the sigmoid saturates.
SQUASH_PROB_FLOOR = 3e-6


@dataclass
class Layer:
    # Weights are held transposed, (in, out), because this BLAS runs
    # batch @ wt far faster than batch @ weight.T at these sizes.
    wt: np.ndarray  # (in, out)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")

    @property
    def weight(self):
        """The conventional (out, in) view of the weight matrix."""
        return self.wt.T


def _views(flat, shapes):
    """Consecutive views into the vector `flat`, one per shape."""
    views = []
    start = 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def _rebind(net, state):
    """__setstate__ of Mlp and PolicyNet: a deep copy or an unpickle gives each
    view an array of its own, so bind the copy's views into its vectors again."""
    net.__dict__.update(state)
    net._bind(net.params, net.grads)


class Mlp:
    """Fully connected stack; forward on a row batch caches activations for one reverse pass.

    The layers' arrays are copied into one vector, `params`, in the order
    of parameters(); `grads` has the same layout.
    """

    __setstate__ = _rebind

    def __init__(self, layers):
        if not layers:
            raise ValueError("an Mlp needs at least one layer")
        self.layers = layers
        self._cache = None
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.wt.shape[0] != prev.wt.shape[1]:
                raise ValueError("layer dimensions do not chain")
        size = sum(l.wt.size + l.bias.size for l in layers)
        self._bind(np.empty(size), np.zeros(size))

    def _bind(self, params, grads):
        """Copy the weights into `params` and point every layer at its views."""
        shapes = [a.shape for l in self.layers for a in (l.wt, l.bias)]
        views = _views(params, shapes)
        for layer, wt, bias in zip(self.layers, views[0::2], views[1::2]):
            wt[...] = layer.wt
            bias[...] = layer.bias
            layer.wt, layer.bias = wt, bias
        grad_views = _views(grads, shapes)
        self._grad_views = list(zip(grad_views[0::2], grad_views[1::2]))
        self.params = params
        self.grads = grads

    @property
    def widths(self):
        return [self.layers[0].wt.shape[0]] + [l.wt.shape[1] for l in self.layers]

    def forward(self, x):
        a = x
        acts = [x]
        for layer in self.layers:
            a = a @ layer.wt
            a += layer.bias
            if layer.activation == RELU:
                np.maximum(a, 0.0, out=a)
            acts.append(a)
        self._cache = acts if x.ndim == 2 else None  # a stack is acting: nothing to reverse
        return a

    def backward(self, output_grad, to_input=False):
        """Fill `grads` given d(objective)/d(output); consumes the forward cache.

        Returns d(objective)/d(input) only if `to_input` (the policy heads feed the trunk).
        """
        return self._backprop(output_grad, True, to_input)

    def input_grad(self, output_grad):
        """d(objective)/d(input) given d(objective)/d(output); consumes the cache, skips `grads`."""
        return self._backprop(output_grad, False, True)

    def _backprop(self, g, fill_grads, to_input):
        if self._cache is None:
            raise RuntimeError("backward pass without a cached forward pass")
        acts, self._cache = self._cache, None
        for k in range(len(self.layers) - 1, -1, -1):
            wt = self.layers[k].wt
            if self.layers[k].activation == RELU:
                g = g * (acts[k + 1] > 0.0)
            if fill_grads:
                dw, db = self._grad_views[k]
                np.matmul(acts[k].T, g, out=dw)
                g.sum(axis=0, out=db)
            if k or to_input:
                # for a width-1 layer the k=1 gemm and this broadcast give the same bits
                g = g * wt[:, 0] if wt.shape[1] == 1 else g @ np.ascontiguousarray(wt.T)
        if to_input:
            return g

    def parameters(self):
        out = []
        for layer in self.layers:
            out.append(layer.wt)
            out.append(layer.bias)
        return out


def mlp_init(widths, activations, rng, final_layer_bound=3e-3):
    """Build an Mlp with uniform init.

    Hidden layers draw from U[-1/sqrt(fan_in), 1/sqrt(fan_in)]; the final
    layer from U[-final_layer_bound, final_layer_bound]. Pass
    final_layer_bound=None to use fan-in scaling everywhere (used for the
    policy trunk, which has no output layer of its own). With rng None
    every weight and bias is 0 and nothing is drawn: for an Mlp whose
    arrays are about to be overwritten, as a checkpoint load does.
    """
    if len(widths) < 2 or any(w <= 0 for w in widths):
        raise ValueError("widths must have >= 2 positive entries")
    if len(activations) != len(widths) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    last = len(widths) - 2
    for k, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        if k == last and final_layer_bound is not None:
            bound = final_layer_bound
        else:
            bound = 1.0 / np.sqrt(fan_in)
        if rng is None:
            wt, bias = np.zeros((fan_in, fan_out)), np.zeros(fan_out)
        else:
            wt = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            bias = rng.uniform(-bound, bound, size=fan_out)
        layers.append(Layer(wt, bias, activations[k]))
    return Mlp(layers)


class RmspropState:
    """Squared-gradient accumulators for one network, in one flat vector.

    `params` are the network's parameter arrays in flat order. `arrays`
    gives one view into `acc` per parameter array, shaped like it; a
    checkpoint stores and loads the accumulators through these views.
    """

    def __init__(self, params, rho=0.99, eps=1e-8):
        self.rho = rho
        self.eps = eps
        size = sum(p.size for p in params)
        self.acc = np.zeros(size)
        self.shapes = [p.shape for p in params]
        # scratch for rmsprop_step, so that a step allocates nothing
        self._t = np.empty(size)
        self._u = np.empty(size)

    @property
    def arrays(self):
        return _views(self.acc, self.shapes)

    def load(self, accumulators):
        if len(accumulators) != len(self.arrays):
            raise ValueError("accumulator count mismatch")
        for mine, theirs in zip(self.arrays, accumulators):
            theirs = np.asarray(theirs, dtype=float)
            if theirs.shape != mine.shape:
                raise ValueError("accumulator shape mismatch")
            mine[...] = theirs


def rmsprop_step(params, grads, state, lr):
    """In-place RMSprop on a flat vector: acc <- rho*acc + (1-rho)*g^2, p -= lr*g/(sqrt(acc)+eps).

    The chain keeps the operation order of that formula, so every element
    gets the same bits as an array-by-array update.
    """
    acc, t, u = state.acc, state._t, state._u
    if params.shape != acc.shape or grads.shape != acc.shape:
        raise ValueError("params/grads/state size mismatch")
    acc *= state.rho
    np.multiply(grads, 1.0 - state.rho, out=t)
    t *= grads
    acc += t
    np.sqrt(acc, out=t)
    t += state.eps
    np.multiply(grads, lr, out=u)
    u /= t
    params -= u


def squashed_log_prob(mean, log_std, action, prob_floor=SQUASH_PROB_FLOOR):
    """Log density at `action` of sigmoid(Normal(mean, exp(log_std))).

    Includes the same additive floor as the sampler, so integrating
    exp(log_prob) over (0, 1) is 1 up to the floor's tiny deficit.
    """
    action = np.asarray(action, dtype=float)
    z = np.log(action) - np.log1p(-action)
    std = np.exp(log_std)
    u = (z - mean) / std
    return (
        -0.5 * u * u
        - log_std
        - 0.5 * K.LOG_2PI
        - np.log(action * (1.0 - action) + prob_floor)
    )


class PolicyNet:
    """Squashed-Gaussian policy: relu trunk, linear mean and log-std heads.

    The trunk and both heads keep their parameters in consecutive slices of
    one vector, `params`, in the order of parameters(); `grads` likewise.
    """

    __setstate__ = _rebind

    def __init__(self, trunk, mean_head, log_std_head,
                 log_std_min=LOG_STD_MIN, log_std_max=LOG_STD_MAX,
                 prob_floor=SQUASH_PROB_FLOOR):
        self.trunk = trunk
        self.mean_head = mean_head
        self.log_std_head = log_std_head
        size = sum(net.params.size for net in (trunk, mean_head, log_std_head))
        self._bind(np.empty(size), np.zeros(size))
        self.log_std_min = log_std_min
        self.log_std_max = log_std_max
        self.prob_floor = prob_floor
        self._sample_cache = None
        self._raw_log_std = None

    def _bind(self, params, grads):
        """Copy the trunk and heads into consecutive slices of `params` and bind them there."""
        nets = (self.trunk, self.mean_head, self.log_std_head)
        shapes = [net.params.shape for net in nets]
        for net, p, g in zip(nets, _views(params, shapes), _views(grads, shapes)):
            net._bind(p, g)
        self.params, self.grads = params, grads

    @classmethod
    def init(cls, obs_dim, hidden_width, rng, head_bound=3e-3, **kwargs):
        trunk = mlp_init(
            [obs_dim, hidden_width, hidden_width], [RELU, RELU], rng,
            final_layer_bound=None,
        )
        mean_head = mlp_init([hidden_width, 1], [LINEAR], rng, final_layer_bound=head_bound)
        log_std_head = mlp_init([hidden_width, 1], [LINEAR], rng, final_layer_bound=head_bound)
        return cls(trunk, mean_head, log_std_head, **kwargs)

    def forward(self, obs):
        """Return (mean, log_std), one value per observation row, with log_std
        clamped to the sane region."""
        h = self.trunk.forward(obs)
        mean = self.mean_head.forward(h).reshape(-1)
        raw = self.log_std_head.forward(h).reshape(-1)
        self._raw_log_std = raw
        # np.minimum(np.maximum()) is np.clip without its per-call wrapper cost
        return mean, np.minimum(np.maximum(raw, self.log_std_min), self.log_std_max)

    def sample(self, obs, rng):
        """Reparameterized draw: (action, log_prob, pre_squash), one value per row.

        action = sigmoid(mean + std * eps) with eps ~ N(0, 1); log_prob is
        the Gaussian density of the pre-squash value corrected for the
        sigmoid change of variables (with the probability floor). A
        (rows, 5) batch draws its noise from the generator `rng` and caches
        what backward_sample needs. A (rows, 1, 5) stack is acting: `rng`
        is then a sequence of generators, one per row, each drawing its
        row's noise, and nothing is cached.
        """
        mean, log_std = self.forward(obs)
        acting = obs.ndim == 3
        noise = (np.array([r.standard_normal() for r in rng]) if acting
                 else rng.standard_normal(mean.shape[0]))
        action, log_prob, z, std = K.squash_sample(mean, log_std, noise, self.prob_floor)
        self._sample_cache = None if acting else (action, std, noise)
        return action, log_prob, z

    def mean_action(self, obs):
        """Deterministic action per row: the squashed mean, no sampling noise.

        Runs only the trunk and the mean head, so on a (rows, 5) batch it
        leaves the log-std head's cache from the last forward() in place. A
        (rows, 1, 5) stack is acting and drops the sample cache. Its bits
        equal those of squash_sample(mean, 0, 0)'s action.
        """
        if obs.ndim == 3:
            self._sample_cache = None
        h = self.trunk.forward(obs)
        return K._sigmoid(self.mean_head.forward(h).reshape(-1))

    def backward_sample(self, g_action, g_log_prob):
        """Backprop through the most recent sample() of a (rows, 5) batch.

        Takes gradients with respect to the sampled action and its log
        probability; routes them through the reparameterization (noise held
        fixed) into `grads`.
        """
        if self._sample_cache is None:
            raise RuntimeError("backward_sample called without a cached sample")
        action, std, noise = self._sample_cache
        self._sample_cache = None
        g_mean, g_log_std = K.squash_backward(
            g_action, g_log_prob, action, std, noise, self.prob_floor)
        raw = self._raw_log_std
        # a clamped log-std passes no gradient
        g_log_std = g_log_std * ((raw >= self.log_std_min) & (raw <= self.log_std_max))
        dh_mean = self.mean_head.backward(g_mean[:, None], to_input=True)
        dh_ls = self.log_std_head.backward(g_log_std[:, None], to_input=True)
        self.trunk.backward(dh_mean + dh_ls)

    def parameters(self):
        return (
            self.trunk.parameters()
            + self.mean_head.parameters()
            + self.log_std_head.parameters()
        )
