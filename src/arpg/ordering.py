"""Generation-order policy: permutations, fixed traversals, step and CFG schedules.

Raster positions are 1-indexed throughout (0 is reserved for the condition
token), so a permutation of a T-token grid is a bijection over {1..T}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIXED_ORDER_KINDS = ("raster", "spiral_in", "spiral_out", "z_curve", "alternate")
SCHEDULE_KINDS = ("arccos", "cosine", "uniform")
CFG_KINDS = ("linear", "constant")


def check_int(name: str, value) -> int:
    """value as an int; ValueError unless it is an int or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return int(value)


def check_seed(name: str, value) -> int:
    """check_int for an rng seed, which numpy takes only when it is >= 0."""
    if check_int(name, value) < 0:
        raise ValueError("%s must be an integer >= 0, got %r" % (name, value))
    return int(value)


# ---------------------------------------------------------------- permutations

def is_permutation(order: np.ndarray, total: int) -> bool:
    order = np.asarray(order)
    return order.shape == (total,) and np.array_equal(np.sort(order), np.arange(1, total + 1))


def fixed_order(kind: str, grid_h: int, grid_w: int) -> np.ndarray:
    """Deterministic traversal of an H x W grid as 1-indexed flat positions."""
    if grid_h < 1 or grid_w < 1:
        raise ValueError("grid dims must be positive")
    if kind == "raster":
        return np.arange(1, grid_h * grid_w + 1)
    if kind == "spiral_in":
        return _spiral_in(grid_h, grid_w)
    if kind == "spiral_out":
        return _spiral_in(grid_h, grid_w)[::-1].copy()
    if kind == "z_curve":
        return _z_curve(grid_h, grid_w)
    if kind == "alternate":
        return _alternate(grid_h, grid_w)
    raise ValueError("unknown order kind %r (choose from %s)"
                     % (kind, "|".join(FIXED_ORDER_KINDS)))


def _spiral_in(h: int, w: int) -> np.ndarray:
    # clockwise boundary peel: top row left-to-right, right column down, ...
    out = []
    top, bottom, left, right = 0, h - 1, 0, w - 1
    while top <= bottom and left <= right:
        out.extend((top, c) for c in range(left, right + 1))
        out.extend((r, right) for r in range(top + 1, bottom + 1))
        if top < bottom:
            out.extend((bottom, c) for c in range(right - 1, left - 1, -1))
        if left < right:
            out.extend((r, left) for r in range(bottom - 1, top, -1))
        top, bottom, left, right = top + 1, bottom - 1, left + 1, right - 1
    return np.array([r * w + c + 1 for r, c in out])


def _z_curve(h: int, w: int) -> np.ndarray:
    # Morton order: row bits at odd positions, column bits at even positions
    def code(r: int, c: int) -> int:
        z = 0
        for b in range(max(h, w).bit_length()):
            z |= ((c >> b) & 1) << (2 * b)
            z |= ((r >> b) & 1) << (2 * b + 1)
        return z

    cells = sorted(((code(r, c), r * w + c + 1) for r in range(h) for c in range(w)))
    return np.array([pos for _, pos in cells])


def _alternate(h: int, w: int) -> np.ndarray:
    # checkerboard: even-parity cells in raster order, then odd-parity cells
    even = [r * w + c + 1 for r in range(h) for c in range(w) if (r + c) % 2 == 0]
    odd = [r * w + c + 1 for r in range(h) for c in range(w) if (r + c) % 2 == 1]
    return np.array(even + odd)


# ---------------------------------------------------------------- step schedule

@dataclass
class DecodeSchedule:
    """How many tokens to emit at each of `steps` decode steps over `total` tokens."""

    kind: str = "arccos"
    steps: int = 16
    total: int = 64


def _progress(kind: str, u: np.ndarray) -> np.ndarray:
    if kind == "arccos":
        return 1.0 - (2.0 / np.pi) * np.arccos(u)
    if kind == "cosine":
        return 1.0 - np.cos(np.pi * u / 2.0)
    if kind == "uniform":
        return u
    raise ValueError("unknown schedule kind %r (choose from %s)"
                     % (kind, "|".join(SCHEDULE_KINDS)))


def schedule_counts(sched: DecodeSchedule) -> list[int]:
    """Per-step token counts: positive integers summing to total.

    Cumulative targets are round-half-up of total * f(s/steps); zero-count
    steps are repaired by borrowing one token from the currently largest step.
    """
    steps, total = check_int("steps", sched.steps), check_int("total", sched.total)
    if steps < 1 or steps > total:
        raise ValueError("steps must satisfy 1 <= steps <= total, got %d/%d"
                         % (steps, total))
    u = np.arange(1, steps + 1, dtype=np.float64) / steps
    cum = np.floor(total * _progress(sched.kind, u) + 0.5).astype(int)
    cum[-1] = total
    counts = np.diff(np.concatenate([[0], cum]))
    while (counts == 0).any():
        counts[np.argmax(counts)] -= 1
        counts[np.argmin(counts)] += 1
    return [int(c) for c in counts]


# ---------------------------------------------------------------- cfg schedule

def cfg_scale_at(kind: str, scale: float, decoded_fraction: float) -> float:
    """Guidance scale of a step whose decoded-before-the-step fraction is given:
    kind "linear" ramps from 1 to `scale` at full progress, "constant" holds it."""
    u = float(decoded_fraction)
    if not 0.0 <= u <= 1.0:
        raise ValueError("decoded fraction must lie in [0,1], got %g" % u)
    if kind == "linear":
        return 1.0 + (scale - 1.0) * u
    if kind == "constant":
        return scale
    raise ValueError("unknown cfg kind %r (choose from %s)"
                     % (kind, "|".join(CFG_KINDS)))
