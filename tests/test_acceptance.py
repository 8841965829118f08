"""Acceptance gate: one test per delivered guarantee.

Every test prints a single PASS/FAIL line with the measured numbers, then
asserts the stated threshold. Run with plain `pytest` (or `pytest -v`) to see
the lines; nothing here tunes itself to pass.
"""

import time

import numpy as np
import pytest

from memtact.crossbar import AnalogTile
from memtact.data import Dataset, FeatureScaler, derive_rng, stratified_split_indices
from memtact.device import (
    DeviceDistribution,
    DeviceParams,
    PulseScheme,
    default_distribution,
    fit_softbounds,
    sample_stats_grid,
    simulate_trace,
)
from memtact.gesturegen import GenSpec, generate_dataset
from memtact.nn import (
    Network,
    NetworkSpec,
    TrainConfig,
    evaluate,
    hardware_aware_finetune,
    program_network,
    train_sgd_fp,
    train_ttv2,
)
from memtact.tactile import FEATURE_LENGTH, GestureSeries, extract_features

_TIMINGS: dict[str, float] = {}


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def featureize(spec: GenSpec):
    gestures, _ = generate_dataset(spec)
    x = np.stack([extract_features(g) for g in gestures])
    y = np.array([g.label for g in gestures]) - 1
    return x, y


def split_scaled(x, y, fraction, seed):
    train_idx, test_idx = stratified_split_indices(y, fraction,
                                                   derive_rng(seed, 7))
    scaler = FeatureScaler.fit(x[train_idx])
    return (Dataset(scaler.transform(x[train_idx]), y[train_idx]),
            Dataset(scaler.transform(x[test_idx]), y[test_idx]))


@pytest.fixture(scope="module")
def corpus():
    """3060 gestures, 5 classes, stratified 75/25 split, train-fitted scaler."""
    t0 = time.monotonic()
    x, y = featureize(GenSpec(samples_per_label=612, label_set=5, seed=0))
    train, test = split_scaled(x, y, 0.25, 0)
    _TIMINGS["corpus"] = time.monotonic() - t0
    return train, test


@pytest.fixture(scope="module")
def fp_reference(corpus):
    """Single-layer floating point baseline on the corpus."""
    train, test = corpus
    t0 = time.monotonic()
    net = Network(NetworkSpec((38, 5)), seed=1)
    history = train_sgd_fp(net, train, TrainConfig(lr=0.05, epochs=30, seed=1),
                           test)
    _TIMINGS["fp"] = time.monotonic() - t0
    return history.records[-1].test_acc


def _fit_random_devices(sigma_c2c):
    """Fit criterion 1's 50 random devices, traced at one cycle-to-cycle
    spread: the worst parameter error, the worst |fitted sigma_c2c -
    sigma_c2c| and the seconds taken."""
    t0 = time.monotonic()
    draws = derive_rng(11, 0)
    scheme = PulseScheme()
    worst = worst_sigma = 0.0
    for i in range(50):
        gu, gd = 10.0 ** draws.uniform(np.log10(0.04), np.log10(0.25), 2)
        b_lo = draws.uniform(-1.25, -0.75)
        b_hi = draws.uniform(0.75, 1.25)
        true = DeviceParams(gamma_up=gu, gamma_down=gd, b_min=b_lo,
                            b_max=b_hi, sigma_c2c=sigma_c2c)
        trace = simulate_trace(true, scheme, 0.0, derive_rng(12, i))
        fit, _ = fit_softbounds(trace, scheme)
        errs = (abs(fit.gamma_up - gu) / gu,
                abs(fit.gamma_down - gd) / gd,
                abs(fit.b_min - b_lo) / abs(b_lo),
                abs(fit.b_max - b_hi) / b_hi)
        worst = max(worst, *errs)
        worst_sigma = max(worst_sigma, abs(fit.sigma_c2c - sigma_c2c))
    return worst, worst_sigma, time.monotonic() - t0


def test_criterion_1_fit_recovers_random_devices(capsys):
    worst, _, elapsed = _fit_random_devices(0.0)
    ok = worst < 0.01 and elapsed < 60.0
    report(capsys, 1, ok, f"50 fitted devices, worst parameter error "
                          f"{100 * worst:.4f}% (<1%), {elapsed:.1f}s (<60s)")
    assert worst < 0.01
    assert elapsed < 60.0


def test_criterion_1b_fit_measures_cycle_to_cycle_spread(capsys):
    """Criterion 1's devices and seeds, traced at sigma_c2c 0.05."""
    worst, worst_sigma, elapsed = _fit_random_devices(0.05)
    ok = worst < 0.01 and worst_sigma <= 0.005
    report(capsys, "1b", ok, f"50 devices at sigma_c2c 0.05, worst parameter "
                             f"error {100 * worst:.4f}% (<1%), worst "
                             f"sigma_c2c error {worst_sigma:.4f} (<=0.005), "
                             f"{elapsed:.1f}s")
    assert worst < 0.01
    assert worst_sigma <= 0.005


def test_criterion_2_population_median_states(capsys):
    n, _ = sample_stats_grid(default_distribution(), 100000, derive_rng(32, 0))
    median = float(np.median(n))
    ok = 20.0 <= median <= 24.0
    report(capsys, 2, ok, f"median states over 1e5 draws {median:.3f} "
                          f"(within 22±2)")
    assert ok


def test_criterion_3_program_and_verify_convergence(capsys):
    t0 = time.monotonic()
    stream = derive_rng(30, 0)
    tile = AnalogTile.from_distribution(100, 100, default_distribution(),
                                        stream)
    targets = derive_rng(31, 0).uniform(-0.9, 0.9, size=(100, 100))
    rep = tile.program_and_verify(targets, stream, epsilon=0.02, max_iter=200)
    elapsed = time.monotonic() - t0
    frac = rep.converged_fraction
    ok = frac >= 0.99 and elapsed < 60.0
    report(capsys, 3, ok, f"converged fraction {frac:.4f} (needs >=0.99), "
                          f"mean {rep.mean_iterations:.1f} iterations, "
                          f"{elapsed:.1f}s (<60s)")
    assert elapsed < 60.0
    assert frac >= 0.99


def test_criterion_4_tile_reads_match_dense_oracle(capsys):
    rng = derive_rng(34, 0)
    dist = default_distribution()
    worst_adj = 0.0
    for k in range(100):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        tile = AnalogTile.from_distribution(rows, cols, dist,
                                            derive_rng(100 + k, 0))
        tile.set_weights(rng.uniform(-1.0, 1.0, size=(rows, cols)))
        w = tile.read_weights()
        x = rng.standard_normal(rows)
        d = rng.standard_normal(cols)
        assert np.array_equal(tile.forward_mac(x), x @ w)
        assert np.array_equal(tile.backward_mac(d), w @ d)
        adj = abs(float(np.dot(tile.forward_mac(x), d))
                  - float(np.dot(x, tile.backward_mac(d))))
        worst_adj = max(worst_adj, adj)
    ok = worst_adj <= 1e-12
    report(capsys, 4, ok, f"100 tiles exact against dense reads, worst "
                          f"adjoint residual {worst_adj:.2e} (<=1e-12)")
    assert ok


def test_criterion_5_gradient_check(capsys):
    rng = derive_rng(33, 0)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        depth = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 7)) for _ in range(depth + 1))
        net = Network(NetworkSpec(dims), seed=int(rng.integers(1000)))
        x = _input_off_the_kinks(net, rng)
        y = int(rng.integers(dims[-1]))
        _, grads_w, grads_b = net.backprop(x, y)
        for l in range(len(net.weights)):
            for idx in np.ndindex(net.weights[l].shape):
                worst = max(worst, _fd_error(net, x, y, net.weights[l], idx,
                                             grads_w[l][idx], h))
            for (j,) in np.ndindex(net.biases[l].shape):
                worst = max(worst, _fd_error(net, x, y, net.biases[l], (j,),
                                             grads_b[l][j], h))
    ok = worst <= 1e-5
    report(capsys, 5, ok, f"20 networks, worst finite-difference gradient "
                          f"error {worst:.2e} (<=1e-5)")
    assert ok


def _input_off_the_kinks(net, rng, margin=1e-3):
    """Input whose hidden preactivations all clear the given margin.

    Finite differences on a piecewise-linear activation only make sense when
    a step of h stays inside one linear piece.
    """
    while True:
        x = rng.standard_normal(net.spec.layer_dims[0])
        hdn = x
        ok = True
        for l in range(net.spec.n_layers - 1):
            z = hdn @ net.weights[l] + net.biases[l]
            if np.min(np.abs(z)) < margin:
                ok = False
                break
            hdn = np.maximum(z, 0.0)
        if ok:
            return x


def _fd_error(net, x, y, array, idx, analytic, h):
    array[idx] += h
    up, _, _ = net.backprop(x, y)
    array[idx] -= 2 * h
    dn, _, _ = net.backprop(x, y)
    array[idx] += h
    numeric = (up - dn) / (2 * h)
    return abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-4)


def test_criterion_6_stochastic_update_expectation(capsys):
    params = DeviceParams(gamma_up=1 / 11, gamma_down=1 / 11, sigma_c2c=0.05)
    tile = AnalogTile.uniform(1, 1, params)
    stream = derive_rng(0, 0)
    # latch scales
    tile.stochastic_update(np.array([1.0]), np.array([1.0]), 0.0, stream)
    x = np.array([0.6])
    d = np.array([-0.8])
    lr = 0.25
    trials = 10000
    dws = np.empty(trials)
    zero = np.zeros((1, 1))
    for t in range(trials):
        tile.set_weights(zero)
        tile.stochastic_update(x, d, lr, stream)
        dws[t] = tile.read_weights()[0, 0]
    expected = -lr * x[0] * d[0] * (1 / 11)  # step at midpoint, scales 1
    se = dws.std(ddof=1) / np.sqrt(trials)
    dev = abs(dws.mean() - expected) / se
    ok = dev <= 3.0
    report(capsys, 6, ok, f"mean step {dws.mean():.6f} vs expected "
                          f"{expected:.6f} over 1e4 trials, {dev:.2f} SE "
                          f"(<=3)")
    assert ok


def _blobs(n_per, centers, spread, rng):
    xs, ys = [], []
    for k, c in enumerate(centers):
        xs.append(rng.normal(0.0, spread, size=(n_per, len(c))) + np.asarray(c))
        ys.append(np.full(n_per, k))
    return Dataset(np.concatenate(xs), np.concatenate(ys))


def test_criterion_7_training_sanity(capsys):
    # idealized devices behave like floating point on a separable toy task
    toy = _blobs(200, [(-1.5, 0.0), (1.5, 0.0)], 0.5, derive_rng(70, 0))
    ideal = DeviceDistribution(mean=np.array([1000.0, 0.0]),
                               covariance=np.zeros((2, 2)))
    cfg = TrainConfig(mode="ttv2", lr=0.1, fast_lr=0.5, transfer_every=5,
                      epochs=20, seed=5)
    _, tt_hist = train_ttv2(NetworkSpec((2, 2)), toy, ideal, cfg,
                            sigma_c2c=0.0)
    tt_acc = tt_hist.records[-1].train_acc
    sgd_net = Network(NetworkSpec((2, 2)), seed=5)
    sgd_hist = train_sgd_fp(sgd_net, toy,
                            TrainConfig(lr=0.05, epochs=20, seed=5))
    sgd_acc = sgd_hist.records[-1].train_acc

    # default devices still descend: 20-epoch moving average of the loss
    # decreases monotonically on a small gesture task
    x, y = featureize(GenSpec(samples_per_label=40, label_set=5, seed=9))
    train, test = split_scaled(x, y, 0.25, 0)
    _, hist = train_ttv2(NetworkSpec((38, 5)), train, default_distribution(),
                         TrainConfig(mode="ttv2", lr=0.1, epochs=30, seed=0),
                         test)
    ma = np.convolve(hist.losses(), np.ones(20) / 20, mode="valid")
    mono = bool(np.all(np.diff(ma) < 0))

    ok = tt_acc >= 0.99 and sgd_acc >= 0.99 and mono
    report(capsys, 7, ok, f"ideal-device train acc {tt_acc:.4f} vs floating "
                          f"point {sgd_acc:.4f} (both >=0.99); smoothed loss "
                          f"monotone decreasing: {mono}")
    assert tt_acc >= 0.99
    assert sgd_acc >= 0.99
    assert mono


def test_criterion_8a_floating_point_baseline(fp_reference, capsys):
    ok = fp_reference >= 0.85
    report(capsys, "8a", ok, f"single-layer floating point test accuracy "
                             f"{fp_reference:.4f} (>=0.85)")
    assert ok


def test_criterion_8b_analog_training_gap(corpus, fp_reference, capsys):
    train, test = corpus
    t0 = time.monotonic()
    _, history = train_ttv2(NetworkSpec((38, 5)), train,
                            default_distribution(),
                            TrainConfig(mode="ttv2", lr=0.1, epochs=30,
                                        seed=0), test)
    _TIMINGS["ttv2"] = time.monotonic() - t0
    tt_acc = history.records[-1].test_acc
    gap = fp_reference - tt_acc
    ok = gap <= 0.05
    report(capsys, "8b", ok, f"analog-trained test accuracy {tt_acc:.4f}, "
                             f"gap to floating point {gap:+.4f} (<=0.05)")
    assert ok


def test_criterion_8c_programmed_network_loss(corpus, capsys):
    train, test = corpus
    t0 = time.monotonic()
    net = Network(NetworkSpec((38, 32, 5)), seed=4)
    train_sgd_fp(net, train, TrainConfig(lr=0.05, epochs=30, seed=4))
    baseline = evaluate(net, test)
    hardware_aware_finetune(net, train, 0.05, 10, derive_rng(4, 5))
    analog, _ = program_network(net, default_distribution(), seed=3)
    programmed = evaluate(analog, test)
    _TIMINGS["program"] = time.monotonic() - t0
    loss = baseline - programmed
    total = sum(_TIMINGS.values())
    ok = loss <= 0.04 and total < 900.0
    report(capsys, "8c", ok, f"programmed test accuracy {programmed:.4f} vs "
                             f"floating point baseline {baseline:.4f}, loss "
                             f"{loss:+.4f} (<=0.04); corpus pipeline total "
                             f"{total:.0f}s (<900s)")
    assert loss <= 0.04
    assert total < 900.0


def test_criterion_9_feature_vector_contract(capsys):
    rng = derive_rng(35, 0)
    for _ in range(1000):
        n = int(rng.integers(1, 121))
        g = GestureSeries(frames=rng.uniform(0.0, 1.0, size=(n, 9, 9)),
                          label=1, speed="regular")
        f = extract_features(g)
        assert f.shape == (FEATURE_LENGTH,)
        assert np.all(np.isfinite(f))

    exact = True
    for _ in range(100):
        n = int(rng.integers(2, 121))
        g = GestureSeries(frames=rng.uniform(0.01, 1.0, size=(n, 9, 9)),
                          label=1, speed="regular")
        f = extract_features(g)
        r = extract_features(GestureSeries(frames=g.frames[::-1].copy(),
                                           label=1, speed="regular"))
        want = f.copy()
        want[25:31] = f[25:31][::-1]
        want[31:37] = f[31:37][::-1]
        exact &= bool(np.array_equal(r, want))
        t = extract_features(GestureSeries(
            frames=g.frames.transpose(0, 2, 1).copy(), label=1,
            speed="regular"))
        want = f.copy()
        want[5:14], want[14:23] = f[14:23], f[5:14]
        want[25:31], want[31:37] = f[31:37], f[25:31]
        exact &= bool(np.array_equal(t, want))
    report(capsys, 9, exact, "1000 random series give 38 finite features; "
                             "reversal and transpose symmetries exact: "
                             f"{exact}")
    assert exact
