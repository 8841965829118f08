"""Network tests: digital SGD, analog two-tile training, programming, I/O."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtact.crossbar import AnalogTile
from memtact.data import Dataset, FeatureScaler, derive_rng
from memtact.device import DeviceDistribution, default_distribution
from memtact.nn import (
    JSON_CHUNK,
    TTV2_OUTPUT_SCALE,
    AnalogNetwork,
    EpochRecord,
    Network,
    NetworkSpec,
    TrainConfig,
    TrainHistory,
    evaluate,
    hardware_aware_finetune,
    init_ttv2,
    load_model,
    program_network,
    read_history_csv,
    save_model,
    softmax,
    train_sgd_fp,
    train_ttv2,
    ttv2_step,
    write_history_csv,
)
from test_crossbar import (reference_midpoint_step,
                           reference_stochastic_update,
                           reference_symmetry_point)


def gaussian_clouds(n_per, centers, spread, rng):
    """Isotropic gaussian class clusters around the given centers."""
    centers = np.asarray(centers, dtype=np.float64)
    xs, ys = [], []
    for k in range(len(centers)):
        xs.append(rng.normal(0.0, spread, size=(n_per, centers.shape[1]))
                  + centers[k])
        ys.append(np.full(n_per, k))
    return Dataset(np.concatenate(xs), np.concatenate(ys))


def ideal_distribution(n=1000.0):
    # near-continuous symmetric devices for idealized training checks
    return DeviceDistribution(mean=np.array([n, 0.0]),
                              covariance=np.zeros((2, 2)))


# -- digital forward / gradients --------------------------------------------


def test_zero_network_gives_uniform_softmax():
    net = Network(NetworkSpec((4, 10)), seed=0)
    net.weights[0][:] = 0.0
    p = softmax(net.forward(np.array([0.2, -1.0, 0.5, 3.0])))
    np.testing.assert_allclose(p, np.full(10, 0.1), atol=1e-15)


def test_basis_weight_matrix_routes_argmax():
    net = Network(NetworkSpec((10, 10)), seed=0)
    net.weights[0] = np.eye(10)
    for k in range(10):
        x = np.zeros(10)
        x[k] = 1.0
        assert int(np.argmax(net.forward(x))) == k


def away_from_relu_kinks(net, rng, margin=1e-3):
    """Draw an input whose hidden preactivations all clear the given margin.

    Finite differences on a piecewise-linear activation are only meaningful
    away from the kinks, where a step of h stays inside one linear piece.
    """
    while True:
        x = rng.standard_normal(net.spec.layer_dims[0])
        h = x
        ok = True
        for l in range(net.spec.n_layers - 1):
            z = h @ net.weights[l] + net.biases[l]
            if np.min(np.abs(z)) < margin:
                ok = False
                break
            h = np.maximum(z, 0.0)
        if ok:
            return x


def test_backprop_matches_finite_differences():
    rng = derive_rng(1, 0)
    for dims in ((3, 4), (3, 6, 4), (5, 4, 4, 3)):
        net = Network(NetworkSpec(dims), seed=int(rng.integers(1000)))
        for _ in range(5):
            x = away_from_relu_kinks(net, rng)
            y = int(rng.integers(dims[-1]))
            _, grads_w, grads_b = net.backprop(x, y)
            h = 1e-5
            worst = 0.0
            for l in range(len(net.weights)):
                flat_idx = rng.integers(net.weights[l].size, size=8)
                for fi in flat_idx:
                    i, j = np.unravel_index(fi, net.weights[l].shape)
                    net.weights[l][i, j] += h
                    up, _, _ = net.backprop(x, y)
                    net.weights[l][i, j] -= 2 * h
                    dn, _, _ = net.backprop(x, y)
                    net.weights[l][i, j] += h
                    num = (up - dn) / (2 * h)
                    err = abs(num - grads_w[l][i, j]) / max(
                        abs(num) + abs(grads_w[l][i, j]), 1e-4)
                    worst = max(worst, err)
                for j in range(len(net.biases[l])):
                    net.biases[l][j] += h
                    up, _, _ = net.backprop(x, y)
                    net.biases[l][j] -= 2 * h
                    dn, _, _ = net.backprop(x, y)
                    net.biases[l][j] += h
                    num = (up - dn) / (2 * h)
                    err = abs(num - grads_b[l][j]) / max(
                        abs(num) + abs(grads_b[l][j]), 1e-4)
                    worst = max(worst, err)
            assert worst <= 1e-5


def test_forward_batch_matches_per_sample():
    net = Network(NetworkSpec((6, 8, 3)), seed=2)
    x = derive_rng(2, 0).standard_normal((10, 6))
    batch = net.forward(x)
    single = np.stack([net.forward(row) for row in x])
    np.testing.assert_allclose(batch, single, atol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((5,))
    with pytest.raises(ValueError):
        NetworkSpec((5, 0))
    assert NetworkSpec((38, 32, 5)).n_layers == 2


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="adam")
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(lr=bad)
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(mode="ttv2", fast_lr=bad)
    with pytest.raises(ValueError):
        TrainConfig(transfer_every=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)


# -- digital training ---------------------------------------------------------


def test_sgd_overfits_single_sample():
    net = Network(NetworkSpec((6, 3)), seed=0)
    x = derive_rng(3, 0).standard_normal(6)
    train = Dataset(np.tile(x, (4, 1)), np.full(4, 2))
    history = train_sgd_fp(net, train, TrainConfig(lr=0.5, epochs=200,
                                                   seed=0))
    assert history.losses()[-1] < 1e-3


def test_sgd_lr_zero_is_a_no_op():
    net = Network(NetworkSpec((4, 3)), seed=1)
    before = [w.copy() for w in net.weights]
    train = gaussian_clouds(10, [(0, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0)],
                            0.3, derive_rng(4, 0))
    history = train_sgd_fp(net, train, TrainConfig(lr=0.0, epochs=4, seed=0))
    for w, b in zip(net.weights, before):
        assert np.array_equal(w, b)
    losses = history.losses()
    # the epoch average visits samples in shuffle order, so only the
    # summation order differs between epochs
    np.testing.assert_allclose(losses, losses[0], rtol=0, atol=1e-12)


def test_zero_epochs_give_empty_history():
    net = Network(NetworkSpec((4, 2)), seed=0)
    train = gaussian_clouds(5, [(0, 0, 0, 1), (1, 0, 0, 0)], 0.2,
                            derive_rng(5, 0))
    assert len(train_sgd_fp(net, train, TrainConfig(epochs=0))) == 0
    _, history = train_ttv2(NetworkSpec((4, 2)), train, ideal_distribution(),
                            TrainConfig(mode="ttv2", epochs=0))
    assert len(history) == 0


def test_training_rejects_empty_dataset():
    empty = Dataset(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        train_sgd_fp(Network(NetworkSpec((3, 2))), empty, TrainConfig())
    with pytest.raises(ValueError):
        evaluate(Network(NetworkSpec((3, 2))), empty)


def test_sgd_history_is_reproducible():
    train = gaussian_clouds(15, [(0, 1), (1, 0), (1, 1)], 0.4,
                            derive_rng(6, 0))
    runs = []
    for _ in range(2):
        net = Network(NetworkSpec((2, 3)), seed=7)
        runs.append(train_sgd_fp(net, train,
                                 TrainConfig(lr=0.05, epochs=5, seed=7)))
    assert np.array_equal(runs[0].losses(), runs[1].losses())


def three_clouds(seed):
    """Train and test sets of three classes in three dimensions."""
    centers = [(0, 1, 0), (1, 0, 1), (1, 1, 0)]
    return (gaussian_clouds(10, centers, 0.4, derive_rng(seed, 0)),
            gaussian_clouds(5, centers, 0.4, derive_rng(seed, 1)))


def hand_initial_weights(dims, rng):
    """Normal weights layer by layer: variance 2 / fan_in, 1 / fan_in for
    the output layer."""
    last = len(dims) - 2
    return [rng.normal(0.0, math.sqrt((2.0 if l < last else 1.0) / dims[l]),
                       size=(dims[l], dims[l + 1])) for l in range(last + 1)]


def test_sgd_fp_streams_match_hand_loop():
    """Initial weights come from (seed, 0) and each epoch's order from
    (seed, 1); the history holds train and test accuracy after the epoch
    and its mean loss."""
    train, test = three_clouds(18)
    spec = NetworkSpec((3, 4, 3))
    net = Network(spec, seed=6)
    history = train_sgd_fp(net, train, TrainConfig(lr=0.05, epochs=3, seed=6),
                           test)
    ref = Network.from_arrays(spec, hand_initial_weights(spec.layer_dims,
                                                         derive_rng(6, 0)),
                              [np.zeros(4), np.zeros(3)])
    shuffle = derive_rng(6, 1)
    records = []
    for epoch in range(3):
        total = 0.0
        for i in shuffle.permutation(len(train)):
            loss, gw, gb = ref.backprop(train.x[i], int(train.y[i]))
            total += loss
            for l in range(spec.n_layers):
                ref.weights[l] -= 0.05 * gw[l]
                ref.biases[l] -= 0.05 * gb[l]
        records.append(EpochRecord(epoch, evaluate(ref, train),
                                   evaluate(ref, test), total / len(train)))
    assert history.records == records
    for got, want in zip(net.weights + net.biases, ref.weights + ref.biases):
        assert np.array_equal(got, want)


def test_evaluate_memorized_and_chance_level():
    net = Network(NetworkSpec((10, 10)), seed=0)
    net.weights[0] = np.eye(10) * 5.0
    x = np.eye(10)
    assert evaluate(net, Dataset(x, np.arange(10))) == 1.0

    rng = derive_rng(7, 0)
    net = Network(NetworkSpec((20, 10)), seed=3)
    x = rng.standard_normal((5000, 20))
    y = np.arange(5000) % 10  # balanced labels, unrelated to the features
    acc = evaluate(net, Dataset(x, y))
    assert abs(acc - 0.1) < 0.03


# -- noise-injection finetuning ----------------------------------------------


def test_finetune_without_noise_is_plain_sgd():
    train = gaussian_clouds(12, [(0, 2), (2, 0), (1, 1)], 0.5,
                            derive_rng(8, 0))
    net = Network(NetworkSpec((2, 3)), seed=4)
    ref = copy.deepcopy(net)
    hardware_aware_finetune(net, train, 0.0, 3, derive_rng(9, 0), lr=0.03)
    # reference loop: continued per-sample SGD with the same draws
    rng = derive_rng(9, 0)
    for _ in range(3):
        for i in rng.permutation(len(train)):
            _, gw, gb = ref.backprop(train.x[i], int(train.y[i]))
            for l in range(len(ref.weights)):
                ref.weights[l] -= 0.03 * gw[l]
                ref.biases[l] -= 0.03 * gb[l]
    for a, b in zip(net.weights, ref.weights):
        assert np.array_equal(a, b)
    for a, b in zip(net.biases, ref.biases):
        assert np.array_equal(a, b)


def test_finetune_with_noise_matches_hand_loop():
    """Each epoch draws its order, then each sample one normal array per
    weight matrix in layer order, all from the caller's generator."""
    train = gaussian_clouds(12, [(0, 2), (2, 0), (1, 1)], 0.5,
                            derive_rng(8, 1))
    net = Network(NetworkSpec((2, 4, 3)), seed=4)
    ref = copy.deepcopy(net)
    rng = derive_rng(9, 1)
    hardware_aware_finetune(net, train, 0.2, 3, rng, lr=0.03)
    ref_rng = derive_rng(9, 1)
    for _ in range(3):
        for i in ref_rng.permutation(len(train)):
            noisy = Network.from_arrays(
                ref.spec, [w * (1.0 + 0.2 * ref_rng.standard_normal(w.shape))
                           for w in ref.weights], ref.biases)
            _, gw, gb = noisy.backprop(train.x[i], int(train.y[i]))
            for l in range(len(ref.weights)):
                ref.weights[l] -= 0.03 * gw[l]
                ref.biases[l] -= 0.03 * gb[l]
    for got, want in zip(net.weights + net.biases, ref.weights + ref.biases):
        assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_finetune_rejects_bad_args():
    train = gaussian_clouds(4, [(0, 1), (1, 0)], 0.2, derive_rng(10, 0))
    net = Network(NetworkSpec((2, 2)))
    with pytest.raises(ValueError):
        hardware_aware_finetune(net, train, -0.1, 1, derive_rng(0, 0))
    with pytest.raises(ValueError):
        hardware_aware_finetune(net, Dataset(np.zeros((0, 2)), np.zeros(0)),
                                0.1, 1, derive_rng(0, 0))


def perturbed_accuracies(net, ds, std, trials, rng):
    accs = np.empty(trials)
    saved = [w.copy() for w in net.weights]
    for t in range(trials):
        net.weights = [w * (1.0 + std * rng.standard_normal(w.shape))
                       for w in saved]
        accs[t] = evaluate(net, ds)
    net.weights = saved
    return accs


@pytest.mark.parametrize("seed", [3, 5])
def test_finetuned_net_degrades_less_under_weight_noise(seed):
    """Paired perturbation experiment on a briefly trained base net."""
    centers = derive_rng(40, seed).normal(0.0, 1.0, size=(3, 8))
    train = gaussian_clouds(80, centers, 1.5, derive_rng(40, seed))
    eval_ds = gaussian_clouds(700, centers, 1.5, derive_rng(41, seed))
    net = Network(NetworkSpec((8, 3)), seed=seed)
    train_sgd_fp(net, train, TrainConfig(lr=0.02, epochs=2, seed=seed))
    tuned = copy.deepcopy(net)
    hardware_aware_finetune(tuned, train, 0.15, 15, derive_rng(42, seed),
                            lr=0.02)
    deg_base = evaluate(net, eval_ds) - perturbed_accuracies(
        net, eval_ds, 0.05, 100, derive_rng(43, seed)).mean()
    deg_tuned = evaluate(tuned, eval_ds) - perturbed_accuracies(
        tuned, eval_ds, 0.05, 100, derive_rng(44, seed)).mean()
    assert deg_base > 0
    assert deg_tuned < deg_base


# -- two-tile analog training -------------------------------------------------


def test_ttv2_frozen_when_both_rates_are_zero():
    train = gaussian_clouds(6, [(0, 1), (1, 0)], 0.3, derive_rng(11, 0))
    cfg = TrainConfig(mode="ttv2", lr=0.0, fast_lr=0.0, epochs=1, seed=0)
    state = init_ttv2(NetworkSpec((2, 2)), default_distribution(), cfg)
    w0 = state.net.tiles[0].read_weights()
    a0 = state.a_tiles[0].read_weights()
    b0 = state.net.biases[0].copy()
    rng = derive_rng(12, 0)
    for i in range(len(train)):
        ttv2_step(state, train.x[i], int(train.y[i]), cfg, rng)
    assert np.array_equal(state.net.tiles[0].read_weights(), w0)
    assert np.array_equal(state.a_tiles[0].read_weights(), a0)
    assert np.array_equal(state.net.biases[0], b0)
    assert np.array_equal(state.hidden[0], np.zeros((2, 2)))


def test_transfer_cursor_schedule():
    """One column transfer per transfer_every steps, round robin over cols."""
    cfg = TrainConfig(mode="ttv2", lr=0.1, fast_lr=0.0, transfer_every=5,
                      epochs=1, seed=1)
    spec = NetworkSpec((3, 4))
    state = init_ttv2(spec, default_distribution(), cfg)
    w0 = state.net.tiles[0].read_weights()
    rng = derive_rng(13, 0)
    data = derive_rng(13, 1)
    for step in range(1, 21):
        ttv2_step(state, data.standard_normal(3), int(data.integers(4)),
                  cfg, rng)
        assert state.steps == step
        assert state.cursors[0] == (step // 5) % 4
    # the accumulator tile never moved, so no pulses reached the weight tile
    assert np.array_equal(state.net.tiles[0].read_weights(), w0)
    assert np.array_equal(state.hidden[0], np.zeros((3, 4)))


def test_ttv2_learns_separable_toy_problem():
    train = gaussian_clouds(100, [(-1.5, 0.0), (1.5, 0.0)], 0.5,
                            derive_rng(14, 0))
    cfg = TrainConfig(mode="ttv2", lr=0.1, fast_lr=0.5, transfer_every=5,
                      epochs=8, seed=5)
    net, history = train_ttv2(NetworkSpec((2, 2)), train,
                              ideal_distribution(), cfg, sigma_c2c=0.0)
    assert history.records[-1].train_acc >= 0.99
    losses = history.losses()
    assert losses[-1] < losses[0]


def test_ttv2_run_is_reproducible():
    train = gaussian_clouds(20, [(0, 1), (1, 0), (1, 1)], 0.4,
                            derive_rng(15, 0))
    cfg = TrainConfig(mode="ttv2", epochs=2, lr=0.1, seed=3)
    final = []
    for _ in range(2):
        net, history = train_ttv2(NetworkSpec((2, 3)), train,
                                  default_distribution(), cfg)
        final.append((net.read_weight_matrices()[0], history.losses()))
    assert np.array_equal(final[0][0], final[1][0])
    assert np.array_equal(final[0][1], final[1][1])


def test_ttv2_streams_match_hand_loop():
    """Layer l's tiles come from (seed, 10 + 2l) and (seed, 11 + 2l), the
    initial weights from (seed, 2), each epoch's order from (seed, 1) and
    every pulse from (seed, 3)."""
    train, test = three_clouds(19)
    spec = NetworkSpec((3, 4, 3))
    dist = default_distribution()
    cfg = TrainConfig(mode="ttv2", lr=0.1, fast_lr=0.5, transfer_every=2,
                      epochs=2, seed=9)
    net, history = train_ttv2(spec, train, dist, cfg, test)
    state = init_ttv2(spec, dist, cfg)
    initial = hand_initial_weights(spec.layer_dims, derive_rng(9, 2))
    for l, w in enumerate(initial):
        tile = AnalogTile.from_distribution(*w.shape, dist,
                                            derive_rng(9, 10 + 2 * l))
        tile.set_weights(w / TTV2_OUTPUT_SCALE)
        assert np.array_equal(state.net.tiles[l].read_weights(),
                              tile.read_weights())
        a_tile = AnalogTile.from_distribution(*w.shape, dist,
                                              derive_rng(9, 11 + 2 * l))
        assert np.array_equal(state.a_tiles[l].read_weights(),
                              a_tile.symmetry_point())
    shuffle, update = derive_rng(9, 1), derive_rng(9, 3)
    records = []
    for epoch in range(2):
        total = 0.0
        for i in shuffle.permutation(len(train)):
            total += ttv2_step(state, train.x[i], int(train.y[i]), cfg,
                               update)
        records.append(EpochRecord(epoch, evaluate(state.net, train),
                                   evaluate(state.net, test),
                                   total / len(train)))
    assert history.records == records
    assert state.steps == 2 * len(train)
    for l in range(spec.n_layers):
        assert np.array_equal(net.tiles[l].read_weights(),
                              state.net.tiles[l].read_weights())
        assert np.array_equal(net.biases[l], state.net.biases[l])


def test_ttv2_matches_mask_reference_update(monkeypatch):
    """Sparse A-tile updates and memoized tile references change nothing.

    The reference run swaps in the full-tile mask update and recomputes the
    midpoint step and symmetry point on every call, as training once did.
    """
    rng = derive_rng(17, 0)
    data = gaussian_clouds(8, rng.normal(0.0, 1.0, size=(5, 38)), 0.5, rng)
    spec = NetworkSpec((38, 8, 5))
    cfg = TrainConfig(mode="ttv2", epochs=2, lr=0.5, transfer_every=1,
                      seed=4)
    init = init_ttv2(spec, default_distribution(), cfg).net

    def run():
        net, history = train_ttv2(spec, data, default_distribution(), cfg,
                                  test=data)
        return ([t.read_weights() for t in net.tiles],
                [b.copy() for b in net.biases], history.records)

    new = run()
    with monkeypatch.context() as m:
        m.setattr(AnalogTile, "stochastic_update",
                  reference_stochastic_update)
        m.setattr(AnalogTile, "midpoint_step", reference_midpoint_step)
        m.setattr(AnalogTile, "symmetry_point", reference_symmetry_point)
        ref = run()
    for got, want in zip(new[:2], ref[:2]):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert new[2] == ref[2]
    # the A tiles fired and transfers moved every weight tile
    for w, tile in zip(new[0], init.tiles):
        assert not np.array_equal(w, tile.read_weights())


# -- the training step against the loop it replaced --------------------------


def reference_pulse(self, up_idx, down_idx, rng):
    """Pulse the devices at the given flat row-major indices once.

    The tile's one soft-bounds update: w += gamma * (1 + sigma * xi) *
    (bound - w), clipped to the device bounds, with one standard normal
    xi per pulsed device drawn in index order, up pulses before down.
    """
    if not (up_idx.size or down_idx.size):
        return
    w = self._w.reshape(-1)
    lo, hi = self.b_min, self.b_max
    for idx, gamma, bound in ((up_idx, self._gu, hi),
                              (down_idx, self._gd, lo)):
        if idx.size:
            xi = rng.standard_normal(idx.size)
            step = gamma.reshape(-1)[idx] * (1.0 + self.sigma_c2c * xi)
            w_i = w[idx]
            w[idx] = np.clip(w_i + step * (bound - w_i), lo, hi)


def reference_undo_map(self, l, mac, x_sum):
    scale, offset = self.scales[l], self.offsets[l]
    if scale == 1.0 and offset == 0.0:
        return mac
    return (mac - offset * x_sum) / scale


def reference_forward(self, x):
    h = np.asarray(x, dtype=np.float64)
    last = self.spec.n_layers - 1
    for l, tile in enumerate(self.tiles):
        h = reference_undo_map(self, l, tile.forward_mac(h),
                               float(h.sum())) + self.biases[l]
        if l < last:
            h = np.maximum(h, 0.0)
    return h


def reference_transfer_column(state, l, cfg, rng):
    """Move one A-tile column into W through the digital accumulator."""
    k = state.cursors[l]
    a_tile = state.a_tiles[l]
    w_tile = state.net.tiles[l]
    one_hot = np.zeros(a_tile.cols)
    one_hot[k] = 1.0
    read = a_tile.backward_mac(one_hot) - a_tile.symmetry_point()[:, k]
    state.hidden[l][:, k] += cfg.lr * read
    unit = w_tile.midpoint_step()[:, k]
    h_col = state.hidden[l][:, k]
    valid = unit > 0
    grants = np.zeros(h_col.shape, dtype=np.int64)
    grants[valid] = (np.abs(h_col[valid]) // unit[valid]).astype(np.int64)
    if grants.any():
        sign = np.sign(h_col)
        h_col -= sign * grants * unit
        up = np.zeros(w_tile.shape, dtype=bool)
        down = np.zeros(w_tile.shape, dtype=bool)
        remaining = grants.copy()
        # pulse trains run in lockstep, each round fires devices still owed
        while remaining.any():
            owed = remaining > 0
            up[:, k] = owed & (sign > 0)
            down[:, k] = owed & (sign < 0)
            w_tile.apply_pulses(up, down, rng)
            remaining[owed] -= 1
    state.cursors[l] = (k + 1) % a_tile.cols


def reference_ttv2_step(state, x, y, cfg, rng):
    """One sample of two-tile training; returns the cross-entropy loss."""
    net = state.net
    last = net.spec.n_layers - 1
    acts = [np.asarray(x, dtype=np.float64)]
    pre = []
    h = acts[0]
    for l, tile in enumerate(net.tiles):
        z = reference_undo_map(net, l, tile.forward_mac(h), float(h.sum())) \
            + net.biases[l]
        pre.append(z)
        h = np.maximum(z, 0.0) if l < last else z
        acts.append(h)
    z = pre[-1] - pre[-1].max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    loss = -math.log(max(p[int(y)], 1e-300))
    delta = p.copy()
    delta[int(y)] -= 1.0
    state.steps += 1
    for l in range(last, -1, -1):
        if cfg.fast_lr:
            state.a_tiles[l].stochastic_update(acts[l], delta, cfg.fast_lr,
                                               rng)
        if cfg.lr:
            net.biases[l] -= cfg.lr * delta
        if l > 0:
            back = reference_undo_map(net, l, net.tiles[l].backward_mac(delta),
                                      float(delta.sum()))
            delta = back * (pre[l - 1] > 0)
        if cfg.lr and state.steps % cfg.transfer_every == 0:
            reference_transfer_column(state, l, cfg, rng)
    return loss


@st.composite
def step_cases(draw):
    dims = draw(st.sampled_from([(4, 3), (6, 2), (5, 4, 3), (3, 6, 2)]))
    # (scale, offset): an identity map, the ttv2 output gain, a programmed map
    undo = draw(st.sampled_from([(1.0, 0.0), (1.25, 0.0), (0.7, 0.15)]))
    every = draw(st.integers(1, 5))
    lr = draw(st.sampled_from([0.0, 0.1, 0.8]))
    fast_lr = draw(st.sampled_from([0.0, 0.5, 4.0]))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.3]))
    steps = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**16))
    return dims, undo, every, lr, fast_lr, sigma, steps, seed


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=step_cases())
def test_ttv2_step_matches_reference_loop(case):
    """The step, transfer, undo-map and pulse kernel move nothing.

    The reference run swaps in the loop they replaced, the mask-based
    update and the np.clip pulse kernel, and must leave every tile, H,
    bias, cursor, counter, loss and generator state the same.
    """
    dims, (scale, offset), every, lr, fast_lr, sigma, steps, seed = case
    spec = NetworkSpec(dims)
    cfg = TrainConfig(mode="ttv2", lr=lr, fast_lr=fast_lr,
                      transfer_every=every, seed=seed % 97)
    data = derive_rng(seed, 0)
    xs = data.standard_normal((steps, dims[0])) \
        * (data.random((steps, dims[0])) < 0.8)
    ys = data.integers(dims[-1], size=steps)

    def run(step):
        state = init_ttv2(spec, default_distribution(), cfg, sigma_c2c=sigma)
        state.net.scales = [scale] * spec.n_layers
        state.net.offsets = [offset] * spec.n_layers
        rng = derive_rng(seed, 3)
        losses = [step(state, x, y, cfg, rng) for x, y in zip(xs, ys)]
        return state, losses, rng

    state, losses, rng = run(ttv2_step)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(AnalogTile, "stochastic_update",
                  reference_stochastic_update)
        m.setattr(AnalogTile, "_pulse", reference_pulse)
        ref, ref_losses, ref_rng = run(reference_ttv2_step)
        x = data.standard_normal(dims[0])
        ref_scores = reference_forward(ref.net, x)
    assert losses == ref_losses
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for l in range(spec.n_layers):
        for got, want in ((state.net.tiles[l], ref.net.tiles[l]),
                          (state.a_tiles[l], ref.a_tiles[l])):
            assert np.array_equal(got.read_weights(), want.read_weights())
        assert np.array_equal(state.hidden[l], ref.hidden[l])
        assert np.array_equal(state.net.biases[l], ref.net.biases[l])
    assert state.cursors == ref.cursors
    assert state.steps == ref.steps
    assert np.array_equal(state.net.forward(x), ref_scores)
    assert np.array_equal(state.net.forward(x[None])[0], ref_scores)


# -- programming a trained network -------------------------------------------


def test_programmed_scores_track_fp_within_write_error():
    rng = derive_rng(16, 0)
    net = Network(NetworkSpec((6, 4)), seed=6)
    net.weights[0] = rng.uniform(-0.7, 0.7, size=(6, 4))
    net.biases[0] = rng.standard_normal(4) * 0.1
    analog, reports = program_network(net, seed=5, epsilon=0.01)
    scale = analog.scales[0]
    err = np.abs(reports[0].achieved - reports[0].targets) / scale
    for _ in range(20):
        x = rng.standard_normal(6)
        bound = np.abs(x) @ err + 1e-12
        gap = np.abs(analog.forward(x) - net.forward(x))
        assert (gap <= bound).all()


def test_program_constant_matrix_falls_back_to_digital_value():
    """A constant matrix c programs zeros and keeps c in the map offset,
    also where c lies outside the device bounds (5.0 > b_max = 1)."""
    for c in (0.3, 5.0):
        net = Network(NetworkSpec((3, 2)), seed=0)
        net.weights[0] = np.full((3, 2), c)
        analog, reports = program_network(net, seed=1)
        assert analog.scales[0] == 1.0 and analog.offsets[0] == -c
        assert np.array_equal(analog.tiles[0].read_weights(),
                              np.zeros((3, 2)))
        assert reports[0].converged.all()
        assert np.array_equal(analog.read_weight_matrices()[0],
                              net.weights[0])
        x = derive_rng(17, 0).standard_normal(3)
        np.testing.assert_allclose(analog.forward(x), net.forward(x),
                                   atol=1e-12)
        twos = np.full(3, 2.0)
        assert np.array_equal(analog.forward(twos), net.forward(twos))
        assert np.array_equal(analog.forward(twos), np.full(2, 6.0 * c))


def test_analog_batch_forward_matches_per_sample():
    net = Network(NetworkSpec((5, 7, 3)), seed=8)
    analog, _ = program_network(net, seed=2)
    x = derive_rng(18, 0).standard_normal((9, 5))
    batch = analog.forward(x)
    single = np.stack([analog.forward(row) for row in x])
    np.testing.assert_allclose(batch, single, atol=1e-9)


def test_analog_network_requires_one_tile_per_layer():
    net = Network(NetworkSpec((4, 4, 2)), seed=0)
    analog, _ = program_network(net, seed=0)
    with pytest.raises(ValueError):
        AnalogNetwork(net.spec, analog.tiles[:1], analog.biases)


# -- serialization ------------------------------------------------------------


def test_model_json_roundtrip_digital(tmp_path):
    net = Network(NetworkSpec((4, 6, 3)), seed=9)
    scaler = FeatureScaler(mean=np.array([0.5, 0.0, -1.0, 2.0]),
                           std=np.array([1.0, 2.0, 0.5, 1.5]))
    path = tmp_path / "model.json"
    save_model(net, path, scaler=scaler, classes=[1, 2, 3],
               extra={"mode": "fp_sgd"})
    back, back_scaler, classes = load_model(path)
    for a, b in zip(back.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, net.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(back_scaler.mean, scaler.mean)
    assert np.array_equal(back_scaler.std, scaler.std)
    assert classes == [1, 2, 3]


def test_model_json_roundtrip_analog(tmp_path):
    net = Network(NetworkSpec((5, 4)), seed=10)
    analog, _ = program_network(net, seed=4)
    path = tmp_path / "analog.json"
    save_model(analog, path, classes=[0, 1, 2, 3])
    back, scaler, classes = load_model(path)
    assert scaler is None
    assert classes == [0, 1, 2, 3]
    x = derive_rng(19, 0).standard_normal((6, 5))
    np.testing.assert_allclose(back.forward(x),
                               analog.forward(x), atol=1e-9)


def test_load_model_names_file_and_layer(tmp_path):
    path = tmp_path / "model.json"
    save_model(Network(NetworkSpec((3, 4, 2)), seed=0), path)
    payload = json.loads(path.read_text())
    payload["weights"][1] = [0.0] * 7
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: layer 1 weights hold 7 values, not 4x2"
    payload["weights"][1] = [0.0] * 8
    payload["scaler"] = {"mean": [0.0] * 5, "std": [1.0] * 3}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: scaler mean holds 5 values, not 3"
    payload["spec"]["layer_dims"] = [3]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: layer_dims [3]: ")


def reference_model_text(net, scaler=None, classes=None, extra=None):
    """The model file as one json.dumps of the whole payload wrote it."""
    payload = {
        "spec": {"layer_dims": list(net.spec.layer_dims)},
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "scaler": scaler.to_dict() if scaler is not None else None,
        "classes": list(classes) if classes is not None else None,
    }
    payload.update(extra or {})
    return json.dumps(payload) + "\n"


def assert_same_text(got, want):
    """got == want, naming the first differing offset; pytest's own diff
    of two long strings would take minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {at}: {got[at:at + 40]!r} "
                    f"!= {want[at:at + 40]!r}")


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300,
                  float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("n", [1, JSON_CHUNK - 1, JSON_CHUNK, JSON_CHUNK + 1,
                               2 * JSON_CHUNK + 3])
def test_streamed_model_file_equals_one_dumps(tmp_path, n):
    """save_model writes a matrix in chunks of JSON_CHUNK values, yet the
    file is json.dumps(payload) + "\n" byte for byte, for sizes on both
    sides of the chunk and for -0.0, subnormals, 1e300 and the non-finite
    values json.dumps renders as NaN, Infinity and -Infinity."""
    rng = derive_rng(n, 0)
    weights = []
    for shape in ((1, n), (n, 1)):
        w = rng.standard_normal(n)
        w[:len(SPECIAL_VALUES)] = SPECIAL_VALUES[:n]
        weights.append(w.reshape(shape))
    net = Network.from_arrays(NetworkSpec((1, n, 1)), weights,
                              [rng.standard_normal(n), np.array([-0.0])])
    path = tmp_path / "m.json"
    save_model(net, path, classes=[3], extra={"mode": "fp_sgd"})
    assert_same_text(path.read_text(), reference_model_text(
        net, classes=[3], extra={"mode": "fp_sgd"}))


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          allow_subnormal=True)


@st.composite
def model_cases(draw):
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    values = lambda size: np.array(
        draw(st.lists(finite_floats, min_size=size, max_size=size)),
        dtype=np.float64)
    weights = [values(a * b).reshape(a, b) for a, b in zip(dims, dims[1:])]
    biases = [values(b) for b in dims[1:]]
    scaler = FeatureScaler(mean=values(dims[0]), std=values(dims[0])) \
        if draw(st.booleans()) else None
    # load_model takes one distinct label per output
    classes = draw(st.none() | st.lists(st.integers(-2**40, 2**40),
                                        min_size=dims[-1], max_size=dims[-1],
                                        unique=True))
    return NetworkSpec(tuple(dims)), weights, biases, scaler, classes


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=model_cases())
def test_model_file_roundtrips_bit_for_bit(tmp_path_factory, case):
    """save_model then load_model returns every array bit for bit (-0.0
    and subnormals included), the scaler and the class list, and the file
    is the one json.dumps of the payload."""
    spec, weights, biases, scaler, classes = case
    net = Network.from_arrays(spec, weights, biases)
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(net, path, scaler=scaler, classes=classes)
    assert_same_text(path.read_text(),
                     reference_model_text(net, scaler, classes))
    back, back_scaler, back_classes = load_model(path)
    assert back.spec == spec
    for got, want in zip(back.weights + back.biases, weights + biases):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if scaler is None:
        assert back_scaler is None
    else:
        assert back_scaler.mean.tobytes() == scaler.mean.tobytes()
        assert back_scaler.std.tobytes() == scaler.std.tobytes()
    assert back_classes == classes


# Bound fixed before the first run. Per device, programming keeps the tile's
# two drawn gamma grids and its state (24 B) and the report's targets,
# achieved states and iteration counts plus three bool masks (27 B); the
# caller's target array adds 8 B while it runs. Program-and-verify's set-up
# and first round, where nearly every device is active, hold at most about
# five more 8-byte arrays (band, error or active indices, targets, bands,
# read-back states), so the peak is near 100 B and the bound leaves about a
# quarter of headroom. save_model adds one 8-byte effective-weight copy and
# a fixed-size chunk. Holding the five parameter grids twice (80 B), seven
# gathered parameter arrays in one pulse round (56 B), or the whole matrix
# as Python floats (32 B) plus its JSON text (about 60 B) all break it.
PROGRAM_BYTES_PER_DEVICE = 128


def test_program_and_save_memory_per_device_is_bounded(tmp_path):
    """The traced peak of program_network plus save_model grows by less
    than PROGRAM_BYTES_PER_DEVICE per device from a 64x64 to a 160x160
    layer: programming holds one copy of what it must, plus blocks."""

    def peak(n):
        net = Network(NetworkSpec((n, n)), seed=n)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        analog, _ = program_network(net, seed=3)
        save_model(analog, tmp_path / f"p{n}.json")
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(8)  # lazy imports and one-off caches
        small, large = peak(64), peak(160)
    finally:
        tracemalloc.stop()
    per_device = (large - small) / (160 * 160 - 64 * 64)
    assert per_device < PROGRAM_BYTES_PER_DEVICE, (small, large)


def test_history_csv_roundtrip(tmp_path):
    history = TrainHistory()
    history.append(0, 0.5, 0.4, 1.234567890123456)
    history.append(1, 0.75, float("nan"), 0.9)
    path = tmp_path / "history.csv"
    write_history_csv(history, path, header_lines=["config_hash=abc"])
    back = read_history_csv(path)
    assert len(back) == 2
    assert back.records[0].loss == history.records[0].loss
    assert back.records[1].train_acc == 0.75
    assert math.isnan(back.records[1].test_acc)


def test_history_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_history_csv(path)


@pytest.mark.parametrize("row, problem", [
    ("3,0.5,0.4", "3 fields, not 4"),
    ("x,0.5,0.4,0.1", "invalid literal for int()"),
    ("3,0.5,0.4,low", "could not convert string to float"),
], ids=["short_row", "text_epoch", "text_loss"])
def test_history_csv_malformed_row_names_file_and_line(tmp_path, row,
                                                       problem):
    path = tmp_path / "history.csv"
    path.write_text("# config_hash=abc\nepoch,train_acc,test_acc,loss\n"
                    f"0,0.5,0.4,1.2\n{row}\n")
    with pytest.raises(ValueError) as e:
        read_history_csv(path)
    assert str(e.value).startswith(f"{path}, line 4: {problem}")
