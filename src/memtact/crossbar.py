"""Analog crossbar tile: MAC reads, stochastic pulsed updates, programming.

A tile is a rows x cols grid of soft-bounds devices (see device.py), one per
weight. Reads are noise-free matrix products of the stored states; writes go
through pulses only, either coincidence-gated stochastic updates or the
closed-loop program-and-verify routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import write_csv
from .device import (
    DEFAULT_SIGMA_C2C,
    DeviceDistribution,
    DeviceParams,
    gammas_from_stats,
    pulse,
    sample_stats_grid,
)

# program-and-verify fires one pulse away from the target after this many
# sign changes of a device's error (see AnalogTile.program_and_verify)
ESCAPE_AFTER_FLIPS = 3

# weight_map_affine puts a matrix's extremes on +-MARGIN of the half-range
MARGIN = 0.9

# the pulse kernel gathers and pulses at most this many devices at a time,
# so a full-tile round holds one block of parameters, not a tile's worth
PULSE_BLOCK = 8192


class UpdateStats(NamedTuple):
    """Pulse counts and scale factors of one stochastic update call."""

    pulses_up: int
    pulses_down: int
    scale_x: float
    scale_d: float


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class AnalogTile:
    """Grid of soft-bounds devices holding one weight matrix.

    Devices differ in their step coefficients only: gamma_up and gamma_down
    are per-device grids, while the bounds b_min, b_max and the
    cycle-to-cycle spread sigma_c2c are one float for the whole tile.

    The tile holds no random generator: every write draws its firing and
    cycle-to-cycle noise from the generator its caller passes, so the same
    generators and call sequence reproduce the state bit for bit.
    """

    def __init__(self, gamma_up, gamma_down, b_min, b_max, sigma_c2c, *,
                 _copy=True):
        # the tile copies its caller's grids, so it aliases nothing the
        # caller can still change; uniform and from_distribution pass
        # _copy=False to hand over the fresh C-ordered grids they made
        if _copy:
            gamma_up, gamma_down = (np.array(g, dtype=np.float64, order="C")
                                    for g in (gamma_up, gamma_down))
        if gamma_up.ndim != 2 or gamma_down.shape != gamma_up.shape:
            raise ValueError("gamma_up and gamma_down must share a 2-D shape")
        if not (np.all(gamma_up > 0) and np.all(gamma_down > 0)):
            raise ValueError("every device needs positive step coefficients")
        if any(np.ndim(v) for v in (b_min, b_max, sigma_c2c)):
            raise ValueError("b_min, b_max and sigma_c2c are one value per "
                             "tile, not per-device arrays")
        self.b_min, self.b_max = float(b_min), float(b_max)
        self.sigma_c2c = float(sigma_c2c)
        if not -math.inf < self.b_min < 0.0 < self.b_max < math.inf:
            raise ValueError("the tile needs finite bounds b_min < 0 < b_max")
        if not 0.0 <= self.sigma_c2c < math.inf:
            raise ValueError("sigma_c2c must be finite and non-negative")
        self._gu, self._gd = gamma_up, gamma_down
        # the pulse kernel's scalars as 0-d arrays, which ufuncs take faster
        # than Python floats; the values, and so the results, are the same
        self._lo_hi_sigma = tuple(np.array(v) for v in (
            self.b_min, self.b_max, self.sigma_c2c))
        self._w = np.zeros(gamma_up.shape)
        # per-device constants of the immutable parameters, made on first use
        self._midpoint = None
        self._symmetry = None
        self._scale_x = 0.0
        self._scale_d = 0.0

    @property
    def rows(self) -> int:
        return self._w.shape[0]

    @property
    def cols(self) -> int:
        return self._w.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._w.shape

    @classmethod
    def uniform(cls, rows: int, cols: int, params: DeviceParams
                ) -> "AnalogTile":
        """Tile of identical devices, mainly for idealized experiments."""
        grid = lambda v: np.full((rows, cols), v, dtype=np.float64)
        return cls(grid(params.gamma_up), grid(params.gamma_down),
                   params.b_min, params.b_max, params.sigma_c2c, _copy=False)

    @classmethod
    def from_distribution(cls, rows: int, cols: int, dist: DeviceDistribution,
                          rng: np.random.Generator, *,
                          sigma_c2c: float = DEFAULT_SIGMA_C2C) -> "AnalogTile":
        """Tile whose devices rng draws independently from the population.

        The tile owns the drawn gamma grids uncopied; every device has the
        unit bounds and the given sigma_c2c.
        """
        n, a = sample_stats_grid(dist, rows * cols, rng)
        gu, gd = gammas_from_stats(n, a)
        del n, a  # the draws go before the tile's state is made
        return cls(gu.reshape(rows, cols), gd.reshape(rows, cols), -1.0, 1.0,
                   sigma_c2c, _copy=False)

    # -- reads ------------------------------------------------------------

    def forward_mac(self, x: np.ndarray) -> np.ndarray:
        """y[j] = sum_i w[i, j] * x[i]; noise-free, state untouched.

        x is one input vector or a batch of them as rows.
        """
        x = np.asarray(x, dtype=np.float64)
        if not 1 <= x.ndim <= 2 or x.shape[-1] != self.rows:
            raise ValueError(f"x must have shape ({self.rows},) or "
                             f"(n, {self.rows})")
        return x @ self._w

    def backward_mac(self, d: np.ndarray) -> np.ndarray:
        """Transpose read: out[i] = sum_j w[i, j] * d[j]."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.cols,):
            raise ValueError(f"d must have shape ({self.cols},)")
        return self._w @ d

    def read_weights(self) -> np.ndarray:
        return self._w.copy()

    def set_weights(self, w: np.ndarray) -> None:
        """Directly load a state matrix, clamped to the tile's bounds.

        Simulation-only plumbing for initial conditions; hardware writes go
        through pulses.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.shape:
            raise ValueError("weight matrix shape must match the tile")
        self._w = np.ascontiguousarray(np.clip(w, self.b_min, self.b_max))

    def midpoint_step(self) -> np.ndarray:
        """Per-device mean noise-free step magnitude at w = 0 (read-only)."""
        if self._midpoint is None:
            self._midpoint = _read_only(
                0.5 * (self._gu * self.b_max - self._gd * self.b_min))
        return self._midpoint

    def symmetry_point(self) -> np.ndarray:
        """State where one up and one down pulse cancel on average.

        Alternating-polarity pulsing settles every device here; gradient
        accumulators treat it as their calibrated zero reference. The array
        is computed once per tile and is read-only.
        """
        if self._symmetry is None:
            self._symmetry = _read_only(
                (self._gu * self.b_max + self._gd * self.b_min)
                / (self._gu + self._gd))
        return self._symmetry

    # -- writes -----------------------------------------------------------

    def _pulse(self, up_idx: np.ndarray, down_idx: np.ndarray, rng) -> None:
        """Pulse the devices at the given flat row-major indices once.

        The tile's one soft-bounds update: w += gamma * (1 + sigma * xi) *
        (bound - w), clipped to the tile's bounds, with one standard normal
        xi per pulsed device drawn in index order, up pulses before down.
        The devices go in blocks of PULSE_BLOCK; each block draws its
        normals from rng in turn, which are the draws of one call for all.
        A polarity with no devices is skipped, and one that fits in a block
        is pulsed without slicing.
        """
        w = self._w.ravel()
        lo, hi, sig = self._lo_hi_sigma
        for idx, grid, bound in ((up_idx, self._gu, hi),
                                 (down_idx, self._gd, lo)):
            n = idx.size
            if not n:
                continue
            gamma = grid.ravel()
            for b in ((idx,) if n <= PULSE_BLOCK else
                      (idx[s:s + PULSE_BLOCK]
                       for s in range(0, n, PULSE_BLOCK))):
                w[b] = pulse(w[b], gamma[b], sig, rng.standard_normal(b.size),
                             bound, lo, hi)

    def apply_pulses(self, up_mask: np.ndarray, down_mask: np.ndarray,
                     rng: np.random.Generator) -> None:
        """Pulse the masked devices once, up and down masks disjoint."""
        # ravel().nonzero()[0] is np.flatnonzero without its call overhead,
        # which the many small updates of training would feel
        self._pulse(up_mask.ravel().nonzero()[0],
                    down_mask.ravel().nonzero()[0], rng)

    def stochastic_update(self, x: np.ndarray, d: np.ndarray, lr: float,
                          rng: np.random.Generator) -> UpdateStats:
        """Rank-one pulsed update approximating w -= lr * outer(x, d).

        Row i fires with probability min(1, sqrt(lr)|x_i|/s_x) and column j
        with min(1, sqrt(lr)|d_j|/s_d); a device pulses only on coincidence,
        at most once, with polarity -sign(x_i d_j). s_x and s_d are running
        maxima of the input magnitudes, kept on the tile.

        One draw of rows + cols uniforms decides the firing: the first rows
        values gate the rows, the rest the columns, the same values and
        generator state as a draw per row followed by a draw per column.
        The columns are tested first, since a step usually fires none. Each
        column's probability takes the same two rounded steps from |d_j| as
        the largest one takes from max |d|, and rounding is monotone, so
        no column fires unless the smallest column draw is below the
        largest probability; that one comparison settles most calls. The
        per-column and row thresholds are computed only past it. The pulse
        kernel then draws one normal per pulsed device in row-major order,
        up before down: the noise draws of a full-tile coincidence mask.
        Only the fired rows x fired columns are visited, so past the draw
        the work scales with the pulses that fire.
        """
        x = np.asarray(x, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        rows, cols = self._w.shape
        if x.shape != (rows,) or d.shape != (cols,):
            raise ValueError("x and d must match the tile dimensions")
        abs_x, abs_d = np.abs(x), np.abs(d)
        # argmax picks the first NaN if there is one, else the largest
        # value: the value of np.maximum.reduce at a third of its call cost
        max_x = abs_x.item(abs_x.argmax()) if rows else 0.0
        max_d = abs_d.item(abs_d.argmax()) if cols else 0.0
        # so the maxima propagate NaN, and |+-inf| is inf: they are finite
        # exactly when every entry is
        if not (max_x < math.inf and max_d < math.inf):
            raise ValueError("update vectors must be finite")
        # a NaN lr fails every comparison, so it would fire nothing yet
        # still raise the running scales
        if not 0 <= lr < math.inf:
            raise ValueError(f"lr must be finite and non-negative, got {lr}")
        s_x = self._scale_x = max(self._scale_x, max_x)
        s_d = self._scale_d = max(self._scale_d, max_d)
        if lr == 0.0 or s_x == 0.0 or s_d == 0.0:
            return UpdateStats(0, 0, s_x, s_d)
        root = math.sqrt(lr)
        u = rng.random(rows + cols)
        # a uniform draw in [0, 1) is below min(1, p) exactly when below p;
        # a draw equal to its probability does not fire
        u_d = u[rows:]
        if not u_d.item(u_d.argmin()) < root * max_d / s_d:
            return UpdateStats(0, 0, s_x, s_d)
        c = (u_d < root * abs_d / s_d).nonzero()[0]
        if not c.size:
            return UpdateStats(0, 0, s_x, s_d)
        r = (u[:rows] < root * abs_x / s_x).nonzero()[0]
        if not r.size:
            return UpdateStats(0, 0, s_x, s_d)
        flat = (r * cols)[:, None] + c
        grad_sign = np.sign(x[r])[:, None] * np.sign(d[c])
        up, down = flat[grad_sign < 0], flat[grad_sign > 0]
        self._pulse(up, down, rng)
        return UpdateStats(up.size, down.size, s_x, s_d)

    def program_and_verify(self, targets: np.ndarray, rng: np.random.Generator,
                           epsilon: float = 0.02, max_iter: int = 200
                           ) -> "ProgramReport":
        """Iteratively pulse every device toward its target and verify.

        A device counts as converged once |w - target| <= max(epsilon *
        |target|, floor) where floor is 0.5% of the tile's state range.
        Unconverged devices after max_iter pulses are flagged, including
        targets outside the physical bounds, which can never converge.

        Each pulse goes toward the target, except for an escape pulse: when
        a device's error w - target has changed sign 3 times since its last
        escape, its next pulse goes away from the target (it repeats the
        previous polarity), and its count restarts. A soft-bounds up/down
        pair is an affine contraction, so a device whose step is wider than
        its band would otherwise settle into a 2-cycle around the target;
        the escape moves it off that cycle onto a new approach, where
        cycle-to-cycle noise can land it in the band. It does not guarantee
        convergence: a device may fall into a new cycle, and without noise
        most bouncing devices do. Escape pulses use only the verify reads,
        draw from the same noise stream, and count like any other pulse, so
        iterations <= max_iter still holds; the tolerance is unchanged.

        Each round pulses and reads back only the devices still outside
        their band, so the work shrinks as devices converge; a device that
        reaches its band is never pulsed again. Pulses fire in row-major
        order, up before down, as with full-tile masks. The report records
        which devices fired an escape pulse, from which
        ProgramReport.failure_causes tells why a device failed.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != self.shape:
            raise ValueError("target matrix shape must match the tile")
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets must be finite")
        if not 0 < epsilon < np.inf:  # NaN or inf would accept any weight
            raise ValueError(f"epsilon must be positive and finite, got "
                             f"{epsilon}")
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        floor = 0.005 * (self.b_max - self.b_min)
        attainable = (targets >= self.b_min) & (targets <= self.b_max)
        iterations = np.zeros(self._w.size, dtype=np.int64)
        escaped = np.zeros(self._w.size, dtype=bool)
        w = self._w.reshape(-1)
        flat_targets = targets.reshape(-1)
        # tolerance and error are built in place and dropped once the active
        # set is made: flat row-major indices of the devices still outside
        # their band, with their targets, bands, error signs, sign-change
        # counts and escape flags compacted alongside; row-major order keeps
        # the noise draws those of full-tile masks
        band = np.abs(flat_targets)
        band *= epsilon
        np.maximum(band, floor, out=band)
        err = w - flat_targets
        np.abs(err, out=err)
        idx = np.flatnonzero(err > band)
        del err
        band = band[idx]
        t = flat_targets[idx]
        below = w[idx] < t
        flips = np.zeros(idx.size, dtype=np.int8)
        esc = np.zeros(idx.size, dtype=bool)
        for it in range(1, max_iter + 1):
            if not idx.size:
                break
            escape = flips >= ESCAPE_AFTER_FLIPS
            flips[escape] = 0
            esc |= escape
            up = below ^ escape
            self._pulse(idx[up], idx[~up], rng)
            w_a = w[idx]
            now_below = w_a < t
            flips += now_below ^ below
            below = now_below
            w_a -= t
            done = np.abs(w_a, out=w_a) <= band
            if done.any():
                iterations[idx[done]] = it
                escaped[idx[done]] = esc[done]
                # compacted one array at a time, so at most one old array
                # is held beside the new ones
                keep = ~done
                idx = idx[keep]
                t = t[keep]
                band = band[keep]
                below = below[keep]
                flips = flips[keep]
                esc = esc[keep]
        iterations[idx] = max_iter
        escaped[idx] = esc
        converged = np.ones(self._w.size, dtype=bool)
        converged[idx] = False
        return ProgramReport(targets=targets.copy(), achieved=self._w.copy(),
                             iterations=iterations.reshape(self.shape),
                             converged=converged.reshape(self.shape),
                             attainable=attainable,
                             escaped=escaped.reshape(self.shape))


@dataclass(frozen=True)
class ProgramReport:
    """Per-device programming outcome plus aggregate views."""

    targets: np.ndarray
    achieved: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    attainable: np.ndarray
    escaped: np.ndarray  # at least one escape pulse fired on the device

    @property
    def converged_fraction(self) -> float:
        return float(self.converged.mean())

    @property
    def mean_iterations(self) -> float:
        return float(self.iterations.mean())

    @property
    def max_abs_rel_error(self) -> float:
        """Largest |achieved - target| relative to max(|target|, 0.01)."""
        err = self.achieved - self.targets
        np.abs(err, out=err)
        den = np.abs(self.targets)
        err /= np.maximum(den, 0.01, out=den)
        return float(err.max())

    def failure_causes(self) -> dict:
        """Why each unconverged device failed, as disjoint masks.

        `unattainable`: the target lies outside the device bounds;
        `bouncing`: attainable, and at least one escape pulse fired;
        `out_of_pulses`: attainable, and the greedy approach used up
        max_iter pulses without an escape. Every unconverged device is in
        exactly one mask, every converged device in none.
        """
        failed = ~self.converged
        reachable = failed & self.attainable
        return {"unattainable": failed & ~self.attainable,
                "bouncing": reachable & self.escaped,
                "out_of_pulses": reachable & ~self.escaped}

    def aggregates(self) -> dict:
        return {
            "devices": int(self.targets.size),
            "converged_fraction": self.converged_fraction,
            "mean_iterations": self.mean_iterations,
            "max_abs_rel_error": self.max_abs_rel_error,
            "unattainable": int((~self.attainable).sum()),
            "failure_causes": {cause: int(mask.sum()) for cause, mask
                               in self.failure_causes().items()},
        }


def weight_map_affine(weights: np.ndarray, tile: AnalogTile
                      ) -> tuple[float, float]:
    """Coefficients (scale, offset) of the min-max map used for programming.

    targets = scale * weights + offset puts the extremes of `weights` on
    +-MARGIN of the tile's half-range ([-0.9, +0.9] for unit bounds). A
    constant matrix yields (0, 0), mapping it to zeros; inference must then
    keep the constant weight. Shape and finiteness guard model-file weights.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != tile.shape:
        raise ValueError("weight matrix shape must match the tile")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    w_lo, w_hi = float(weights.min()), float(weights.max())
    span = w_hi - w_lo
    if span == 0.0:
        return 0.0, 0.0
    center = 0.5 * (tile.b_max + tile.b_min)
    half = 0.5 * (tile.b_max - tile.b_min)
    t_lo = center - MARGIN * half
    t_hi = center + MARGIN * half
    scale = (t_hi - t_lo) / span
    return scale, t_lo - w_lo * scale


# ---------------------------------------------------------------------------
# file formats


def write_program_report_csv(reports, path, header_lines=()) -> None:
    """Per-device CSV of a network's programming, one report per layer.

    Rows run over layers, then row-major over each tile's devices, with the
    layer index in the first column.
    """
    write_csv(path, header_lines, ["layer", "row", "col", "target",
                                   "achieved", "iterations", "converged"],
              ([str(l), str(i), str(j), repr(float(r.targets[i, j])),
                repr(float(r.achieved[i, j])), str(int(r.iterations[i, j])),
                str(int(r.converged[i, j]))]
               for l, r in enumerate(reports)
               for i in range(r.targets.shape[0])
               for j in range(r.targets.shape[1])))
