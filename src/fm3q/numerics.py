"""Flat-parameter dense networks with a hand-written reverse pass.

Training differentiates two graph shapes only: per-agent dense utility nets
feeding a state-conditioned mixer, and (for neural independent Q) one dense
net followed by a gather. So instead of a deep-learning framework or a
general autodiff tape, `DenseNet.forward_cache` keeps each layer's input and
pre-activation and `backward` runs one net's reverse pass over that cache;
callers write the few ops around the nets (gather, mixer, squared error) by
hand. All parameters of a model live in one flat vector with a named
layout, which keeps optimizer state, target snapshots, and checkpoints
trivial to manage and to diff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHECKPOINT_VERSION = 1

ACTIVATIONS = ("relu", "elu", "abs", "identity")


class GradientError(RuntimeError):
    """A gradient computation cannot proceed (non-finite values)."""


def _act_forward(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "elu":
        return np.where(x > 0.0, x, np.expm1(x))
    if kind == "abs":
        return np.abs(x)
    if kind == "identity":
        return x
    raise ValueError(f"unknown activation {kind!r}")


def _act_derivative(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return (x > 0.0).astype(np.float64)
    if kind == "elu":
        return np.where(x > 0.0, 1.0, np.exp(x))
    if kind == "abs":
        # sign(0) == 0: the chosen subgradient of |x| at the kink.
        return np.sign(x)
    if kind == "identity":
        return np.ones_like(x)
    raise ValueError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# parameter layouts


@dataclass(frozen=True)
class ParamLayout:
    """Named, contiguous, non-overlapping slices of one flat float64 vector."""

    entries: tuple[tuple[str, int, tuple[int, ...]], ...]
    size: int

    def __post_init__(self):
        index = {}
        offset = 0
        for name, off, shape in self.entries:
            if name in index:
                raise ValueError(f"duplicate parameter name {name!r}")
            if off != offset:
                raise ValueError(f"layout entry {name!r} does not partition the vector")
            index[name] = (off, shape)
            offset += _shape_size(shape)
        if offset != self.size:
            raise ValueError("layout entries do not cover the full vector")
        object.__setattr__(self, "_index", index)

    @classmethod
    def build(cls, named_shapes) -> "ParamLayout":
        entries = []
        offset = 0
        for name, shape in named_shapes:
            shape = tuple(int(d) for d in shape)
            entries.append((name, offset, shape))
            offset += _shape_size(shape)
        return cls(tuple(entries), offset)

    @classmethod
    def merge(cls, layouts) -> "ParamLayout":
        named = []
        for layout in layouts:
            named.extend((name, shape) for name, _, shape in layout.entries)
        return cls.build(named)

    def names(self):
        return [name for name, _, _ in self.entries]

    def locate(self, name: str) -> tuple[int, tuple[int, ...]]:
        return self._index[name]

    def view(self, values: np.ndarray, name: str) -> np.ndarray:
        off, shape = self._index[name]
        return values[off : off + _shape_size(shape)].reshape(shape)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.size, dtype=np.float64)

    def validate(self, values: np.ndarray) -> None:
        if values.shape != (self.size,):
            raise ValueError(f"expected flat vector of size {self.size}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("parameter vector contains non-finite values")


def _shape_size(shape: tuple[int, ...]) -> int:
    size = 1
    for d in shape:
        size *= int(d)
    return size


# ---------------------------------------------------------------------------
# dense networks


@dataclass(frozen=True)
class DenseNet:
    """Spec of a fully connected net whose parameters live in a flat vector.

    `sizes` runs (input, hidden..., output). The hidden activation applies to
    every layer but the last, which uses the output activation.
    """

    name: str
    sizes: tuple[int, ...]
    hidden_activation: str = "relu"
    output_activation: str = "identity"

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ValueError("a dense net needs at least input and output sizes")
        for kind in (self.hidden_activation, self.output_activation):
            if kind not in ACTIVATIONS:
                raise ValueError(f"unknown activation {kind!r}")

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def layer_activations(self) -> tuple[str, ...]:
        hidden = len(self.sizes) - 2
        return (self.hidden_activation,) * hidden + (self.output_activation,)

    def param_entries(self):
        entries = []
        for k in range(len(self.sizes) - 1):
            entries.append((f"{self.name}.w{k}", (self.sizes[k + 1], self.sizes[k])))
            entries.append((f"{self.name}.b{k}", (self.sizes[k + 1],)))
        return entries

    def layout(self) -> ParamLayout:
        return ParamLayout.build(self.param_entries())

    def init_into(self, layout: ParamLayout, values: np.ndarray, rng: np.random.Generator) -> None:
        """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer."""
        for k in range(len(self.sizes) - 1):
            bound = 1.0 / np.sqrt(self.sizes[k])
            w = layout.view(values, f"{self.name}.w{k}")
            b = layout.view(values, f"{self.name}.b{k}")
            w[:] = rng.uniform(-bound, bound, size=w.shape)
            b[:] = rng.uniform(-bound, bound, size=b.shape)

    def forward(self, layout: ParamLayout, values: np.ndarray, x) -> np.ndarray:
        """Plain inference pass; accepts (d,) or (B, d) input."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"{self.name}: input width {x.shape[1]} does not match {self.in_dim}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{self.name}: non-finite input")
        for k, act in enumerate(self.layer_activations()):
            w = layout.view(values, f"{self.name}.w{k}")
            b = layout.view(values, f"{self.name}.b{k}")
            x = _act_forward(act, x @ w.T + b)
        return x[0] if single else x

    def forward_cache(self, layout: ParamLayout, values: np.ndarray, x) -> tuple[np.ndarray, list]:
        """Forward pass over a (B, d) batch that also returns, per layer,
        the (input, pre-activation) pair `backward` needs."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"{self.name}: input width {x.shape[1]} does not match {self.in_dim}"
            )
        layers = []
        for k, act in enumerate(self.layer_activations()):
            w = layout.view(values, f"{self.name}.w{k}")
            b = layout.view(values, f"{self.name}.b{k}")
            pre = x @ w.T + b
            layers.append((x, pre))
            x = _act_forward(act, pre)
        return x, layers

    def preactivation_margin(self, layout: ParamLayout, values: np.ndarray, x) -> float:
        """Smallest |pre-activation| seen at a relu or abs unit.

        Finite-difference checks are only meaningful away from activation
        kinks; callers can resample configurations whose margin is tiny.
        """
        _, layers = self.forward_cache(layout, values, x)
        kinks = [
            float(np.abs(pre).min())
            for (_, pre), act in zip(layers, self.layer_activations())
            if act in ("relu", "abs")
        ]
        return min(kinks, default=np.inf)


def backward(net: DenseNet, layout: ParamLayout, values: np.ndarray, layers, upstream, grads: np.ndarray) -> None:
    """Reverse pass of one dense net.

    `layers` is the cache of `net.forward_cache` at `values` and `upstream`
    the gradient of the net's output. Each layer's weight and bias gradient
    is written into its slice of the flat vector `grads`; the gradient with
    respect to the net's input is never formed.
    """
    acts = net.layer_activations()
    g = upstream
    for k in reversed(range(len(layers))):
        h, pre = layers[k]
        act = acts[k]
        if act != "identity":
            g = g * _act_derivative(act, pre)
        layout.view(grads, f"{net.name}.b{k}")[:] = g.sum(axis=0)
        layout.view(grads, f"{net.name}.w{k}")[:] = g.T @ h
        if k:
            g = g @ layout.view(values, f"{net.name}.w{k}")


def pick_cols_grad(g: np.ndarray, idx: np.ndarray, width: int) -> np.ndarray:
    """Gradient of x[arange(B), idx] with respect to a (B, width) matrix x.

    A scatter-add into zeros rather than an assignment, so a -0.0 entry of
    `g` lands as +0.0.
    """
    out = np.zeros((len(idx), width), dtype=np.float64)
    np.add.at(out, (np.arange(len(idx)), idx), g)
    return out


def mean_squared_error(targets: np.ndarray, pred: np.ndarray) -> tuple[float, np.ndarray]:
    """mean((targets - pred)^2) and its gradient with respect to `pred`."""
    diff = targets - pred
    value = float((diff * diff).mean())
    return value, -(2.0 * diff * np.full(diff.shape, 1.0 / diff.size))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First and second moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_size(cls, size: int) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float = 5e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    """One bias-corrected adaptive-moment update; returns the new vector."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape:
        raise ValueError("gradient shape does not match parameters")
    if not np.all(np.isfinite(grads)):
        bad = np.flatnonzero(~np.isfinite(grads))[:5]
        raise GradientError(f"non-finite gradient entries at indices {bad.tolist()}")
    state.step += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grads
    state.v = beta2 * state.v + (1.0 - beta2) * grads * grads
    m_hat = state.m / (1.0 - beta1**state.step)
    v_hat = state.v / (1.0 - beta2**state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# finite differences


def central_difference_error(f, x: np.ndarray, analytic: np.ndarray, eps: float, skip_tol: float = 1e-8) -> float:
    """Max relative error of `analytic` against central differences of `f`.

    Coordinates where both the analytic and numeric derivative are below
    `skip_tol` in magnitude are skipped (they carry no signal, only noise).
    """
    worst = 0.0
    probe = np.array(x, dtype=np.float64)
    for i in range(probe.size):
        keep = probe[i]
        probe[i] = keep + eps
        f_plus = f(probe)
        probe[i] = keep - eps
        f_minus = f(probe)
        probe[i] = keep
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[i])
        if abs(a) < skip_tol and abs(numeric) < skip_tol:
            continue
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric)))
    return worst


def finite_diff_check(net: DenseNet, params: np.ndarray, x, eps: float = 1e-5, layout: ParamLayout | None = None) -> float:
    """Check the `backward` gradient of sum(net(x)) against central differences."""
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    if layout is None:
        layout = net.layout()

    def scalar(p):
        return float(np.sum(net.forward(layout, p, x)))

    out, layers = net.forward_cache(layout, params, x)
    grads = layout.zeros()
    backward(net, layout, params, layers, np.ones_like(out), grads)
    return central_difference_error(scalar, params, grads, eps)


# ---------------------------------------------------------------------------
# checkpoint documents


def params_document(layout: ParamLayout, values: np.ndarray) -> dict:
    """Self-describing parameter document (layout table plus flat values)."""
    layout.validate(values)
    return {
        "version": CHECKPOINT_VERSION,
        "layout": [
            {"name": name, "offset": off, "shape": list(shape)}
            for name, off, shape in layout.entries
        ],
        "values": [float(v) for v in values],
    }


def parse_params_document(doc: dict) -> tuple[ParamLayout, np.ndarray]:
    if "version" not in doc:
        raise ValueError("parameter document is missing the mandatory version field")
    if doc["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported parameter document version {doc['version']!r}")
    entries = tuple(
        (e["name"], int(e["offset"]), tuple(int(d) for d in e["shape"]))
        for e in doc["layout"]
    )
    values = np.asarray(doc["values"], dtype=np.float64)
    layout = ParamLayout(entries, values.size)
    layout.validate(values)
    return layout, values
