"""Synthetic tactile gesture generator.

Renders the ten gesture classes as moving Gaussian pressure blobs on the 9x9
grid: taps are stationary bursts, swipes translate the blob, circles move it
along a closed loop, two-finger swipes render two parallel blobs. Speed picks
the frame count band. Everything is reproducible from (seed, gesture index).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, asdict

import numpy as np

from .data import derive_rng
from .tactile import GRID, SPEEDS, GestureSeries, encode_gesture

SPEED_BANDS = {"fast": (20, 40), "regular": (40, 60), "slow": (60, 90)}
DEFAULT_NOISE_STD = 0.02
FORMAT_VERSION = 1

_ROWS = np.arange(GRID, dtype=np.float64)[:, np.newaxis]
_COLS = np.arange(GRID, dtype=np.float64)[np.newaxis, :]


@dataclass(frozen=True)
class GenSpec:
    """Dataset recipe: class count, per-class size, speed mix, noise, seed."""

    samples_per_label: int = 306
    label_set: int = 10
    speed_mix: tuple = (1 / 3, 1 / 3, 1 / 3)
    noise_std: float = DEFAULT_NOISE_STD
    seed: int = 0

    def __post_init__(self):
        if self.label_set not in (5, 10):
            raise ValueError("label_set must be 5 or 10")
        if self.samples_per_label < 1:
            raise ValueError("samples_per_label must be positive")
        mix = tuple(float(f) for f in self.speed_mix)
        if len(mix) != 3 or not all(0 <= f < np.inf for f in mix):
            raise ValueError("speed_mix needs 3 finite non-negative "
                             "fractions")
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError("speed_mix fractions must sum to 1")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and non-negative")
        # checked here, not at the first gesture's derive_rng, so that a
        # streaming writer rejects the recipe before it opens its file
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "speed_mix", mix)


def _render(path_r, path_c, amp_t, sigma) -> np.ndarray:
    """Frames of one Gaussian blob following (path_r, path_c) with envelope amp_t."""
    pr = np.asarray(path_r)[:, np.newaxis, np.newaxis]
    pc = np.asarray(path_c)[:, np.newaxis, np.newaxis]
    amp = np.asarray(amp_t)[:, np.newaxis, np.newaxis]
    d2 = (_ROWS - pr) ** 2 + (_COLS - pc) ** 2
    return amp * np.exp(-d2 / (2.0 * sigma ** 2))


def _plateau_envelope(n, amp, rng) -> np.ndarray:
    """Soft-ramped constant envelope so contact builds up and releases."""
    t = np.arange(n, dtype=np.float64)
    ramp_in = max(2.0, rng.uniform(0.08, 0.22) * n)
    ramp_out = max(2.0, rng.uniform(0.08, 0.22) * n)
    return amp * np.minimum(1.0, np.minimum(t / ramp_in, (n - 1 - t) / ramp_out))


def _pressure_jitter(n, rng) -> np.ndarray:
    """Slow multiplicative wavering of contact force along a stroke."""
    t = np.arange(n, dtype=np.float64) / max(n - 1, 1)
    depth = rng.uniform(0.015, 0.06)
    cycles = rng.uniform(0.8, 2.5)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return 1.0 + depth * np.sin(2.0 * np.pi * cycles * t + phase)


def _wobble(n, rng, scale) -> np.ndarray:
    """Smoothed zero-mean random drift, models an unsteady fingertip."""
    steps = rng.normal(0.0, 1.0, n)
    walk = np.cumsum(steps)
    k = max(3, n // 6)
    kernel = np.ones(k) / k
    smooth = np.convolve(walk, kernel, mode="same")
    smooth -= smooth.mean()
    peak = np.abs(smooth).max()
    if peak < 1e-12:
        return np.zeros(n)
    return scale * smooth / peak


def _tap_frames(n, rng, bursts: int) -> np.ndarray:
    cr = 4.0 + rng.uniform(-1.4, 1.4)
    cc = 4.0 + rng.uniform(-1.4, 1.4)
    sigma = rng.uniform(0.95, 1.4)
    amp = rng.uniform(0.65, 0.95)
    t = np.arange(n, dtype=np.float64)
    if bursts == 1:
        t0 = (n - 1) * (0.5 + rng.uniform(-0.1, 0.1))
        width = n * rng.uniform(0.08, 0.13)
        env = amp * np.exp(-((t - t0) ** 2) / (2.0 * width ** 2))
        return _render(np.full(n, cr), np.full(n, cc), env, sigma)
    width = n * rng.uniform(0.055, 0.075)
    t1 = (n - 1) * (0.28 + rng.uniform(-0.05, 0.05))
    t2 = (n - 1) * (0.72 + rng.uniform(-0.05, 0.05))
    amp2 = amp * rng.uniform(0.8, 1.1)
    env1 = amp * np.exp(-((t - t1) ** 2) / (2.0 * width ** 2))
    env2 = amp2 * np.exp(-((t - t2) ** 2) / (2.0 * width ** 2))
    # the finger lands slightly elsewhere the second time
    dr = rng.uniform(-0.5, 0.5)
    dc = rng.uniform(-0.5, 0.5)
    a = _render(np.full(n, cr), np.full(n, cc), env1, sigma)
    b = _render(np.full(n, cr + dr), np.full(n, cc + dc), env2, sigma)
    return np.clip(a + b, 0.0, 1.0)


def _swipe_frames(n, rng, axis: str, direction: int, fingers: int) -> np.ndarray:
    """Straight-line motion; axis 'row' moves vertically, 'col' horizontally."""
    lo = 0.8 + rng.uniform(-0.6, 0.6)
    hi = 8.0 - 0.8 + rng.uniform(-0.6, 0.6)
    start, end = (lo, hi) if direction > 0 else (hi, lo)
    moving = np.linspace(start, end, n)
    fixed = 4.0 + rng.uniform(-1.1, 1.1) + _wobble(n, rng, rng.uniform(0.02, 0.12))
    sigma = rng.uniform(0.9, 1.15)
    env = _plateau_envelope(n, rng.uniform(0.55, 0.95), rng) * _pressure_jitter(n, rng)
    if axis == "row":
        pr, pc = moving, fixed
    else:
        pr, pc = fixed, moving
    if fingers == 1:
        return _render(pr, pc, env, sigma)
    gap = rng.uniform(1.5, 2.0)
    w1 = rng.uniform(0.88, 1.0)
    w2 = rng.uniform(0.88, 1.0)
    if axis == "row":
        a = _render(pr, pc - gap, env * w1, sigma)
        b = _render(pr, pc + gap, env * w2, sigma)
    else:
        a = _render(pr - gap, pc, env * w1, sigma)
        b = _render(pr + gap, pc, env * w2, sigma)
    return np.clip(a + b, 0.0, 1.0)


def _circle_frames(n, rng, direction: int) -> np.ndarray:
    """Closed circular stroke; direction +1 runs clockwise on the grid
    (rows grow downward), -1 counter-clockwise."""
    cr = 4.0 + rng.uniform(-0.8, 0.8)
    cc = 4.0 + rng.uniform(-0.8, 0.8)
    radius = 2.4 + rng.uniform(-0.35, 0.35)
    squash = rng.uniform(0.9, 1.12)
    span = rng.uniform(1.75, 2.25) * np.pi
    phi0 = -0.5 * np.pi + rng.uniform(-0.6, 0.6)
    phi = phi0 + direction * span * np.arange(n) / (n - 1)
    pr = cr + radius * squash * np.sin(phi) + _wobble(n, rng, 0.11)
    pc = cc + radius / squash * np.cos(phi) + _wobble(n, rng, 0.11)
    env = _plateau_envelope(n, rng.uniform(0.5, 0.95), rng) * _pressure_jitter(n, rng)
    return _render(pr, pc, env, rng.uniform(0.9, 1.25))


# template label -> renderer and its arguments after (n, rng)
_TEMPLATES = {
    1: (_tap_frames, (1,)), 2: (_tap_frames, (2,)),
    3: (_swipe_frames, ("row", +1, 1)), 4: (_swipe_frames, ("row", -1, 1)),
    5: (_swipe_frames, ("col", +1, 1)), 6: (_swipe_frames, ("col", -1, 1)),
    7: (_circle_frames, (+1,)), 8: (_circle_frames, (-1,)),
    9: (_swipe_frames, ("row", -1, 2)), 10: (_swipe_frames, ("row", +1, 2)),
}


def generate_gesture(label: int, speed: str, rng: np.random.Generator, *,
                     noise_std: float = DEFAULT_NOISE_STD) -> GestureSeries:
    """Render one gesture of the given 10-class label and speed band."""
    if speed not in SPEED_BANDS:
        raise ValueError(f"speed must be one of {tuple(SPEED_BANDS)}")
    if not 1 <= int(label) <= 10:
        raise ValueError("label must lie in 1..10")
    lo, hi = SPEED_BANDS[speed]
    n = int(rng.integers(lo, hi + 1))
    label = int(label)
    render, extra = _TEMPLATES[label]
    frames = render(n, rng, *extra)
    if noise_std > 0:
        frames = frames + rng.normal(0.0, noise_std, frames.shape)
    frames = np.clip(frames, 0.0, 1.0)
    return GestureSeries(frames=frames, label=label, speed=speed)


def _speed_allocation(count: int, mix) -> list[str]:
    """Deterministic largest-remainder split of count over the speed bands."""
    raw = [count * f for f in mix]
    base = [int(np.floor(v)) for v in raw]
    short = count - sum(base)
    order = np.argsort([base[i] - raw[i] for i in range(3)])
    for i in range(short):
        base[order[i]] += 1
    return [speed for speed, k in zip(SPEEDS, base) for _ in range(k)]


def _jobs(spec: GenSpec) -> list[tuple[int, int, str]]:
    """(template, label, speed) per gesture id; of 5 classes, class c
    takes templates 2c - 1 and 2c in turn."""
    group = 10 // spec.label_set
    speeds = _speed_allocation(spec.samples_per_label, spec.speed_mix)
    return [(group * (label - 1) + 1 + k % group, label, s)
            for label in range(1, spec.label_set + 1)
            for k, s in enumerate(speeds)]


def iter_dataset(spec: GenSpec, ids: range | None = None
                 ) -> Iterator[GestureSeries]:
    """Render the recipe's gestures one at a time, in id order.

    For the 5-class set each coarse class draws evenly from its two source
    templates. Every gesture gets its own rng stream derived from
    (seed, gesture index), so generation order never matters, and a range
    of ids renders those gestures alone, as the full run would.
    """
    jobs = _jobs(spec)
    for gid in range(len(jobs)) if ids is None else ids:
        template, final_label, speed = jobs[gid]
        rng = derive_rng(spec.seed, gid)
        g = generate_gesture(template, speed, rng, noise_std=spec.noise_std)
        g.label = final_label
        yield g


def render_jsonl(spec: GenSpec, ids: range) -> str:
    """The gesture file's records for a range of gesture ids."""
    return "".join(encode_gesture(gid, g)
                   for gid, g in zip(ids, iter_dataset(spec, ids)))


def dataset_manifest(spec: GenSpec) -> dict:
    """The recipe, its gesture total and per-class counts, without
    rendering a gesture."""
    counts = Counter(label for _, label, _ in _jobs(spec))
    return {
        "spec": asdict(spec),
        "seed": spec.seed,
        "total": sum(counts.values()),
        "counts_per_label": {str(k): v for k, v in sorted(counts.items())},
        "format_version": FORMAT_VERSION,
    }


def generate_dataset(spec: GenSpec) -> tuple[list[GestureSeries], dict]:
    """The full dataset for a recipe, held in memory, plus its manifest."""
    return list(iter_dataset(spec)), dataset_manifest(spec)
