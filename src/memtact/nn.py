"""Fully connected classifiers, digital and analog.

The digital path is plain per-sample SGD with ReLU hidden layers and a
softmax cross-entropy head, plus a noise-injection finetune that makes
weights robust to multiplicative perturbations. The analog path keeps each
weight matrix on crossbar tiles and trains with a two-tile scheme: gradients
accumulate on an A tile through stochastic pulse-coincidence updates, and a
digital accumulator H periodically transfers one column at a time onto the
weight tile W as granularity-sized pulses. Biases stay digital throughout.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .crossbar import AnalogTile, ProgramReport, weight_map_affine
from .data import Dataset, FeatureScaler, derive_rng, json_array, \
    json_object, read_json
from .device import DEFAULT_SIGMA_C2C, DeviceDistribution, \
    default_distribution


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths from input to output, e.g. (38, 128, 10)."""

    layer_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError("need at least input and output dims, all >= 1")
        object.__setattr__(self, "layer_dims", dims)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1


@dataclass
class TrainConfig:
    """Hyperparameters shared by the digital and analog training loops."""

    mode: str = "fp_sgd"
    lr: float = 0.05
    fast_lr: float = 0.5
    transfer_every: int = 5
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("fp_sgd", "ttv2"):
            raise ValueError("mode must be 'fp_sgd' or 'ttv2'")
        if not (math.isfinite(self.lr) and math.isfinite(self.fast_lr)):
            raise ValueError("learning rates must be finite")
        if self.lr < 0 or self.fast_lr < 0:
            raise ValueError("learning rates must be non-negative")
        if self.transfer_every < 1:
            raise ValueError("transfer_every must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_acc: float
    test_acc: float
    loss: float


@dataclass
class TrainHistory:
    """Per-epoch training curve."""

    records: list = field(default_factory=list)

    def append(self, epoch, train_acc, test_acc, loss):
        self.records.append(EpochRecord(int(epoch), float(train_acc),
                                        float(test_acc), float(loss)))

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def __len__(self) -> int:
        return len(self.records)


def softmax(z: np.ndarray) -> np.ndarray:
    # the ufunc reductions behind z.max and e.sum, without their wrappers
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _activations(net, x: np.ndarray) -> list:
    """[x, hidden ReLU outputs..., logits] of one sample or a batch of rows;
    net._mac(l, h) is layer l's MAC of h through its weights."""
    h = np.asarray(x, dtype=np.float64)
    acts = [h]
    last = len(net.biases) - 1
    for l, b in enumerate(net.biases):
        h = net._mac(l, h) + b
        if l < last:
            h = relu(h)
        acts.append(h)
    return acts


def _backward(net, x: np.ndarray, y: int):
    """Cross-entropy loss, activations and each layer's output error for one
    sample; net._backward_mac(l, d) is layer l's transpose MAC of d."""
    acts = _activations(net, x)
    # softmax returns a new array, used as the error
    delta = softmax(acts[-1])
    y = int(y)
    loss = -math.log(max(delta[y], 1e-300))
    delta[y] -= 1.0
    deltas = [delta]
    for l in range(len(net.biases) - 1, 0, -1):
        # a hidden unit passes error where its ReLU output is positive,
        # which is where its pre-activation was
        deltas.append(net._backward_mac(l, deltas[-1]) * (acts[l] > 0))
    deltas.reverse()
    return loss, acts, deltas


def _initial_weights(spec: NetworkSpec, rng: np.random.Generator) -> list:
    """Normal weights per layer from rng: variance 2 / fan_in for hidden
    layers, 1 / fan_in for the output layer."""
    dims, last = spec.layer_dims, spec.n_layers - 1
    return [rng.normal(0.0, math.sqrt((2.0 if l < last else 1.0) / dims[l]),
                       size=(dims[l], dims[l + 1]))
            for l in range(spec.n_layers)]


class Network:
    """Digital FC network; weights[l] has shape (fan_in, fan_out)."""

    def __init__(self, spec: NetworkSpec, *, seed: int = 0):
        """Random initial weights drawn from seed, zero biases."""
        self.spec = spec
        self.weights = _initial_weights(spec, derive_rng(seed, 0))
        self.biases = [np.zeros(d) for d in spec.layer_dims[1:]]

    @classmethod
    def from_arrays(cls, spec: NetworkSpec, weights, biases) -> "Network":
        """Network holding the given arrays, drawing no initial weights."""
        net = cls.__new__(cls)
        net.spec, net.weights, net.biases = spec, list(weights), list(biases)
        return net

    def _mac(self, l: int, h: np.ndarray) -> np.ndarray:
        return h @ self.weights[l]

    def _backward_mac(self, l: int, d: np.ndarray) -> np.ndarray:
        return self.weights[l] @ d

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class scores (logits) for one sample or a batch of rows."""
        return _activations(self, x)[-1]

    def backprop(self, x: np.ndarray, y: int):
        """Cross-entropy loss and gradients for one sample."""
        loss, acts, deltas = _backward(self, x, y)
        return loss, [np.outer(a, d) for a, d in zip(acts, deltas)], deltas


def evaluate(net, dataset: Dataset) -> float:
    """Fraction of samples whose argmax score matches the label."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    scores = net.forward(dataset.x)
    return float((scores.argmax(axis=1) == dataset.y).mean())


def _train_epochs(net, train, test, epochs, rng, step) -> TrainHistory:
    """Run step(x, y), which trains on one sample and returns its loss,
    over each epoch in an order shuffled by rng; record net's train and test
    accuracy (nan without a test set) and the mean loss per epoch."""
    if len(train) == 0:
        raise ValueError("training set is empty")
    history = TrainHistory()
    for epoch in range(epochs):
        total = 0.0
        for i in rng.permutation(len(train)):
            total += step(train.x[i], int(train.y[i]))
        test_acc = evaluate(net, test) if test is not None else float("nan")
        history.append(epoch, evaluate(net, train), test_acc,
                       total / len(train))
    return history


def _sgd(net, train, test, epochs, rng, lr, noise_std=0.0) -> TrainHistory:
    """Per-sample SGD on net, shuffled by rng, with gradients taken under
    weight noise drawn from rng when noise_std > 0 (see the finetune)."""
    def step(x, y):
        noisy = net
        if noise_std > 0:
            noisy = copy.copy(net)
            noisy.weights = [
                w * (1.0 + noise_std * rng.standard_normal(w.shape))
                for w in net.weights]
        loss, gw, gb = noisy.backprop(x, y)
        if lr:
            for l in range(len(net.weights)):
                net.weights[l] -= lr * gw[l]
                net.biases[l] -= lr * gb[l]
        return loss

    return _train_epochs(net, train, test, epochs, rng, step)


def train_sgd_fp(net: Network, train: Dataset, cfg: TrainConfig,
                 test: Dataset | None = None) -> TrainHistory:
    """Per-sample SGD with cross-entropy loss; deterministic under cfg.seed."""
    return _sgd(net, train, test, cfg.epochs, derive_rng(cfg.seed, 1),
                cfg.lr)


def hardware_aware_finetune(net: Network, train: Dataset, noise_std: float,
                            epochs: int, rng: np.random.Generator, *,
                            lr: float = 0.05) -> Network:
    """Continue training under multiplicative Gaussian weight noise.

    Each sample sees weights w * (1 + noise_std * xi) during forward and
    backward, through a shallow copy of the network that shares its
    biases, and its gradients step the clean weights. rng shuffles each
    epoch, then draws xi per sample, one array per matrix in layer order.
    With noise_std = 0 this is plain continued SGD.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    _sgd(net, train, None, epochs, rng, lr, noise_std)
    return net


class AnalogNetwork:
    """FC network whose weight matrices live on analog tiles.

    Forward MACs run on the tiles; per-layer affine coefficients undo the
    weight-to-conductance mapping of programmed networks (scale 1, offset 0
    for tiles trained in place). Biases are digital.
    """

    def __init__(self, spec: NetworkSpec, tiles, biases, scales=None,
                 offsets=None):
        if len(tiles) != spec.n_layers:
            raise ValueError("one tile per layer required")
        self.spec = spec
        self.tiles = list(tiles)
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.scales = list(scales) if scales is not None \
            else [1.0] * spec.n_layers
        self.offsets = list(offsets) if offsets is not None \
            else [0.0] * spec.n_layers

    def _undo_map(self, l: int, mac: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(mac - offset * sum(x)) / scale: the MAC of x, one vector or a
        batch of rows, through the effective weights (w - offset) / scale.
        The sum is taken only for a nonzero offset; trained tiles have none.
        """
        scale, offset = self.scales[l], self.offsets[l]
        if offset:
            mac = mac - offset * x.sum(axis=-1, keepdims=True)
        return mac if scale == 1.0 else mac / scale

    def _mac(self, l: int, h: np.ndarray) -> np.ndarray:
        return self._undo_map(l, self.tiles[l].forward_mac(h), h)

    def _backward_mac(self, l: int, d: np.ndarray) -> np.ndarray:
        return self._undo_map(l, self.tiles[l].backward_mac(d), d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class scores for one sample or a batch of rows."""
        return _activations(self, x)[-1]

    def read_weight_matrices(self):
        """Effective weight matrices after undoing the programming map."""
        out = []
        for l, tile in enumerate(self.tiles):
            w = tile.read_weights()
            scale, offset = self.scales[l], self.offsets[l]
            if not (scale == 1.0 and offset == 0.0):
                w -= offset  # in place on the copy read_weights made
                w /= scale
            out.append(w)
        return out


@dataclass
class TTv2State:
    """Mutable state of the two-tile training scheme for one network.

    Per layer: the weight tile, the gradient-accumulation tile A, the digital
    transfer accumulator H and a round-robin column cursor; steps counts the
    samples trained on.
    """

    net: AnalogNetwork
    a_tiles: list
    hidden: list
    cursors: list
    steps: int = 0


TTV2_OUTPUT_SCALE = 0.8


def init_ttv2(spec: NetworkSpec, dist: DeviceDistribution, cfg: TrainConfig,
              *, sigma_c2c: float = DEFAULT_SIGMA_C2C) -> TTv2State:
    """Build tiles for every layer and load small random initial weights.

    Each weight tile carries a fixed digital output gain so the bounded
    device range spans a useful logical weight range; the gain is undone
    after every MAC, the same peripheral arithmetic used for programmed
    inference tiles. Gradient-accumulation tiles start parked at their
    per-device symmetry point, which also serves as the zero reference
    for transfer reads.
    """
    tiles, a_tiles = [], []
    for l, w in enumerate(_initial_weights(spec, derive_rng(cfg.seed, 2))):
        w_tile, a_tile = (AnalogTile.from_distribution(
            *w.shape, dist, derive_rng(cfg.seed, stream + 2 * l),
            sigma_c2c=sigma_c2c) for stream in (10, 11))
        w_tile.set_weights(w / TTV2_OUTPUT_SCALE)
        a_tile.set_weights(a_tile.symmetry_point())
        tiles.append(w_tile)
        a_tiles.append(a_tile)
    net = AnalogNetwork(spec, tiles,
                        [np.zeros(d) for d in spec.layer_dims[1:]],
                        scales=[1.0 / TTV2_OUTPUT_SCALE] * spec.n_layers)
    return TTv2State(net=net, a_tiles=a_tiles,
                     hidden=[np.zeros(t.shape) for t in tiles],
                     cursors=[0] * spec.n_layers)


def _transfer_column(state: TTv2State, l: int, cfg: TrainConfig,
                     rng: np.random.Generator) -> None:
    """Move one A-tile column into W through the digital accumulator.

    The column is read with a one-hot MAC relative to the tile's calibrated
    symmetry reference, scaled by lr into H; every H entry is granted the
    whole number of granularity units it holds (one unit is the receiving
    device's midpoint step), fires that many matching-sign pulses on W and
    is debited by the granted amount. H therefore carries pending weight
    motion and lr sets the rate at which A drains into W.

    Every unit is positive, since the tile constructor requires positive
    step coefficients and b_min < 0 < b_max, so the grants need no mask
    for a zero unit. Pulse trains run in lockstep: round n fires the
    devices granted more than n pulses.
    """
    k = state.cursors[l]
    a_tile = state.a_tiles[l]
    w_tile = state.net.tiles[l]
    one_hot = np.zeros(a_tile.cols)
    one_hot[k] = 1.0
    read = a_tile.backward_mac(one_hot) - a_tile.symmetry_point()[:, k]
    h_col = state.hidden[l][:, k]
    h_col += cfg.lr * read
    unit = w_tile.midpoint_step()[:, k]
    grants = (np.abs(h_col) // unit).astype(np.int64)
    rounds = int(np.maximum.reduce(grants))
    if rounds:
        sign = np.sign(h_col)
        h_col -= sign * grants * unit
        pos, neg = sign > 0, sign < 0
        up = np.zeros(w_tile.shape, dtype=bool)
        down = np.zeros(w_tile.shape, dtype=bool)
        for n in range(rounds):
            owed = grants > n
            up[:, k] = owed & pos
            down[:, k] = owed & neg
            w_tile.apply_pulses(up, down, rng)
    state.cursors[l] = (k + 1) % a_tile.cols


def ttv2_step(state: TTv2State, x: np.ndarray, y: int, cfg: TrainConfig,
              rng: np.random.Generator) -> float:
    """One sample of two-tile training; returns the cross-entropy loss.

    All errors come from the weights as the step found them; then, last
    layer first, each layer pulses A, steps its bias and, every
    transfer_every steps, moves one A column into its own W.
    """
    loss, acts, deltas = _backward(state.net, x, y)
    lr, fast_lr = cfg.lr, cfg.fast_lr
    biases, a_tiles = state.net.biases, state.a_tiles
    state.steps += 1
    transfer = lr and state.steps % cfg.transfer_every == 0
    for l in range(len(deltas) - 1, -1, -1):
        if fast_lr:
            a_tiles[l].stochastic_update(acts[l], deltas[l], fast_lr, rng)
        if lr:
            biases[l] -= lr * deltas[l]
        if transfer:
            _transfer_column(state, l, cfg, rng)
    return loss


def train_ttv2(spec: NetworkSpec, train: Dataset, dist: DeviceDistribution,
               cfg: TrainConfig, test: Dataset | None = None,
               *, sigma_c2c: float = DEFAULT_SIGMA_C2C
               ) -> tuple[AnalogNetwork, TrainHistory]:
    """Full two-tile training run; deterministic under cfg.seed."""
    state = init_ttv2(spec, dist, cfg, sigma_c2c=sigma_c2c)
    update_rng = derive_rng(cfg.seed, 3)
    history = _train_epochs(
        state.net, train, test, cfg.epochs, derive_rng(cfg.seed, 1),
        lambda x, y: ttv2_step(state, x, y, cfg, update_rng))
    return state.net, history


def program_network(net: Network, dist: DeviceDistribution | None = None, *,
                    seed: int = 0, epsilon: float = 0.02, max_iter: int = 200
                    ) -> tuple[AnalogNetwork, list[ProgramReport]]:
    """Map a digital network onto tiles via program-and-verify.

    Each weight matrix is min-max mapped onto the central band of the tile
    range and written with closed-loop pulses; the inverse affine map is
    stored so analog scores track the digital ones up to programming error.
    A constant matrix c is programmed as zeros and kept in the map:
    scale 1 and offset -c make its effective weights (0 + c) / 1 = c, at
    any c, inside the device bounds or not.
    """
    if dist is None:
        dist = default_distribution()
    tiles, scales, offsets, reports = [], [], [], []
    for l, w in enumerate(net.weights):
        # one stream per layer draws the devices, then programs them
        rng = derive_rng(seed, 20 + l)
        tile = AnalogTile.from_distribution(w.shape[0], w.shape[1], dist, rng)
        scale, offset = weight_map_affine(w, tile)
        # (0, 0) maps a constant w to +0.0 even if w < 0: -0.0 + 0.0 is +0.0
        targets = w * scale
        targets += offset
        reports.append(tile.program_and_verify(
            targets, rng, epsilon=epsilon, max_iter=max_iter))
        del targets  # the report holds its own copy
        if scale == 0.0:
            scale, offset = 1.0, -float(w.ravel()[0])
        tiles.append(tile)
        scales.append(scale)
        offsets.append(offset)
    analog = AnalogNetwork(net.spec, tiles, [b.copy() for b in net.biases],
                           scales, offsets)
    return analog, reports


# ---------------------------------------------------------------------------
# file formats


# values per json.dumps call when save_model writes a weight matrix
JSON_CHUNK = 4096


def save_model(net, path, *, scaler: FeatureScaler | None = None,
               classes=None, extra: dict | None = None) -> None:
    """Serialize a digital or analog network to JSON.

    Analog networks are stored through their effective weight matrices, which
    is exactly what their noise-free forward computes. The file is
    json.dumps(payload) + "\n", where payload["weights"] lists each matrix
    row-major; a matrix is written JSON_CHUNK values at a time, so no
    Python float or string the size of a whole matrix is ever made.
    """
    if isinstance(net, AnalogNetwork):
        weights = net.read_weight_matrices()
    else:
        weights = net.weights
    payload = {
        "spec": {"layer_dims": list(net.spec.layer_dims)},
        "weights": None,  # streamed below
        "biases": [b.tolist() for b in net.biases],
        "scaler": scaler.to_dict() if scaler is not None else None,
        "classes": list(int(c) for c in classes) if classes is not None
                   else None,
    }
    if extra:
        payload.update(extra)
    # every other value is encoded before the file is opened
    fields = [(json.dumps(key), None if key == "weights" else json.dumps(v))
              for key, v in payload.items()]
    with open(path, "w") as fh:
        for i, (key, text) in enumerate(fields):
            fh.write(("{" if i == 0 else ", ") + key + ": ")
            if text is not None:
                fh.write(text)
                continue
            fh.write("[")
            for l, w in enumerate(weights):
                flat = w.reshape(-1)
                fh.write(", [" if l else "[")
                for start in range(0, flat.size, JSON_CHUNK):
                    if start:
                        fh.write(", ")
                    # json.dumps of a list is "[" + items + "]"
                    fh.write(json.dumps(
                        flat[start:start + JSON_CHUNK].tolist())[1:-1])
                fh.write("]")
            fh.write("]")
        fh.write("}\n")


def load_model(path):
    """Rebuild a digital network plus its scaler and class list."""
    d = json_object(path, read_json(path), ("spec", "weights", "biases"),
                    "model")
    dims = json_object(path, d["spec"], ("layer_dims",), "spec")["layer_dims"]
    classes = d.get("classes")
    for what, ints in (("layer_dims", dims),
                       ("classes", [] if classes is None else classes)):
        if not (isinstance(ints, list) and all(type(n) is int for n in ints)):
            raise ValueError(f"{path}: {what} is not a list of integers")
    try:
        spec = NetworkSpec(tuple(dims))
    except ValueError as e:
        raise ValueError(f"{path}: layer_dims {dims}: {e}") from None
    if classes is not None and len(classes) != dims[-1]:
        raise ValueError(f"{path}: classes holds {len(classes)} labels, not "
                         f"{dims[-1]}")
    if classes is not None and len(set(classes)) != len(classes):
        raise ValueError(f"{path}: classes repeats a label")
    if not all(isinstance(d[k], list) and len(d[k]) == spec.n_layers
               for k in ("weights", "biases")):
        raise ValueError(f"{path}: weights and biases need one list per "
                         f"layer")
    weights, biases = [], []
    for l in range(spec.n_layers):
        w = json_array(path, d["weights"][l], f"layer {l} weights")
        if w.size != dims[l] * dims[l + 1]:
            raise ValueError(f"{path}: layer {l} weights hold {w.size} "
                             f"values, not {dims[l]}x{dims[l + 1]}")
        weights.append(w.reshape(dims[l], dims[l + 1]))
        b = json_array(path, d["biases"][l], f"layer {l} biases")
        if b.shape != (dims[l + 1],):
            raise ValueError(f"{path}: layer {l} biases are not a list of "
                             f"{dims[l + 1]} numbers")
        biases.append(b)
    net = Network.from_arrays(spec, weights, biases)
    scaler = None
    if d.get("scaler"):
        s = json_object(path, d["scaler"], ("mean", "std"), "scaler")
        s = {k: json_array(path, s[k], f"scaler {k}") for k in ("mean", "std")}
        for k, v in s.items():
            if v.shape != (dims[0],):
                held = f"{v.size} values" if v.ndim == 1 \
                    else f"an array of shape {v.shape}"
                raise ValueError(f"{path}: scaler {k} holds {held}, "
                                 f"not {dims[0]}")
        scaler = FeatureScaler.from_dict(s)
    return net, scaler, classes


def write_history_csv(history: TrainHistory, path, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_acc", "test_acc", "loss"])
        for r in history.records:
            writer.writerow([r.epoch, repr(r.train_acc), repr(r.test_acc),
                             repr(r.loss)])


def read_history_csv(path) -> TrainHistory:
    """Read a history; every ValueError names the file, a bad row its line."""
    history = TrainHistory()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader
                if r and not r[0].startswith("#")]
    if not rows or rows[0][1] != ["epoch", "train_acc", "test_acc", "loss"]:
        raise ValueError(f"{path}: not a history file")
    for lineno, r in rows[1:]:
        try:
            if len(r) != 4:
                raise ValueError(f"{len(r)} fields, not 4")
            history.append(int(r[0]), float(r[1]), float(r[2]), float(r[3]))
        except ValueError as e:
            raise ValueError(f"{path}, line {lineno}: {e}") from None
    return history
