"""Output checks of the benchmark.

Each check compares an output against a separate computation or a property
the method must have, never against a stored copy of an earlier output, and
raises CheckFailed saying what is wrong.
"""

from __future__ import annotations

import math

import numpy as np

# Tape (BLAS gemm) logits against cache-route (row-by-row) logits, float32:
# the two routes sum in different orders, nothing else differs. Measured on
# the desk model: at most 4.8e-7 apart on logits up to 0.63, while a key
# prefix one row too long moves them by 1e-2.
LOGIT_ATOL = 2e-5
LOGIT_RTOL = 1e-4
# Tape gradients against central differences, float64, eps 1e-5; measured
# at most 5e-11 apart on gradients up to 0.18.
GRAD_ATOL = 1e-8
GRAD_RTOL = 1e-6
# Slack on the nucleus boundary, for probabilities computed in another order.
MASS_SLACK = 1e-6


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_ids(tokens, vocab: int, what: str) -> None:
    t = np.asarray(tokens)
    if t.size == 0 or t.min() < 0 or t.max() >= vocab:
        raise CheckFailed("%s: ids outside [0, %d): min %s max %s"
                          % (what, vocab, t.min(initial=0), t.max(initial=0)))


def check_order(order, cells, what: str) -> None:
    """order (1-indexed positions) visits every cell of `cells` exactly once."""
    got = np.sort(np.asarray(order).reshape(-1))
    want = np.sort(np.asarray(cells).reshape(-1))
    if got.shape != want.shape or not np.array_equal(got, want):
        dup = np.unique(got[1:][got[1:] == got[:-1]])
        raise CheckFailed("%s: decode order covers %d of %d cells (repeated %s)"
                          % (what, np.intersect1d(got, want).size, want.size,
                             dup.tolist()))


def check_kept(out, ref, idx, what: str) -> None:
    """out equals ref bit for bit at the flat indices idx."""
    a = np.asarray(out).reshape(-1)[idx]
    b = np.asarray(ref).reshape(-1)[idx]
    if not np.array_equal(a, b):
        bad = np.asarray(idx)[a != b]
        raise CheckFailed("%s: known cells %s changed" % (what, bad.tolist()))


def check_anchor(out, base, off_r: int, off_c: int, what: str) -> None:
    """The base grid sits unchanged at (off_r, off_c) of the expanded grid."""
    h, w = np.shape(base)
    window = np.asarray(out)[off_r:off_r + h, off_c:off_c + w]
    if window.shape != (h, w) or not np.array_equal(window, base):
        raise CheckFailed("%s: base not found at offset (%d, %d)"
                          % (what, off_r, off_c))


def check_equal(got, want, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.array_equal(got, want):
        n = int((got != want).sum()) if got.shape == want.shape else -1
        raise CheckFailed("%s: outputs differ (%d cells)" % (what, n))


def check_close(got, want, what: str, atol: float = LOGIT_ATOL,
                rtol: float = LOGIT_RTOL) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if got.shape != want.shape or not (err <= limit).all():
        worst = float(np.max(err - limit)) if got.shape == want.shape else math.nan
        raise CheckFailed("%s: values differ beyond tolerance (worst excess %.3g)"
                          % (what, worst))


def filtered_set(logits, temperature: float, top_k: int | None,
                 top_p: float) -> np.ndarray:
    """Boolean [rows, vocab]: ids a top-k / top-p sampler may return.

    An id is allowed when fewer than top_k ids are strictly more probable
    and the mass strictly above it is short of top_p; ties are allowed.
    """
    z = np.asarray(logits, dtype=np.float64) / temperature
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    above = p[:, None, :] > p[:, :, None]  # [row, id, other]: other beats id
    allowed = np.ones(p.shape, dtype=bool)
    if top_k is not None:
        allowed &= above.sum(axis=-1) < top_k
    if top_p < 1.0:
        mass = (above * p[:, None, :]).sum(axis=-1)
        allowed &= mass < top_p + MASS_SLACK
    return allowed


def check_in_filtered_set(ids, logits, temperature: float, top_k: int | None,
                          top_p: float, what: str) -> None:
    ids = np.asarray(ids)
    ok = filtered_set(logits, temperature, top_k, top_p)[np.arange(ids.size), ids]
    if not ok.all():
        raise CheckFailed("%s: sampled ids %s lie outside the top-k/top-p set"
                          % (what, ids[~ok].tolist()))


def check_gradients(tape, fd, atol: float = GRAD_ATOL,
                    rtol: float = GRAD_RTOL) -> None:
    tape = np.asarray(tape, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    err = np.abs(tape - fd)
    bad = err > atol + rtol * np.abs(fd)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed("gradient %d: tape %.6g vs finite difference %.6g"
                          % (i, tape[i], fd[i]))


def check_first_loss(loss: float, vocab: int, tol: float = 0.1) -> None:
    """A fresh model is near uniform, so its loss is near ln(vocab)."""
    if not abs(loss - math.log(vocab)) <= tol:
        raise CheckFailed("first loss %.4f is not within %.2f of ln %d = %.4f"
                          % (loss, tol, vocab, math.log(vocab)))


def check_loss_falls(losses) -> None:
    """The last quarter of the steps averages below the first quarter."""
    x = np.asarray(losses, dtype=np.float64)
    q = max(1, x.size // 4)
    if x.size < 2 or not x[-q:].mean() < x[:q].mean():
        raise CheckFailed("loss did not fall: first %s, last %s"
                          % (x[:q].tolist(), x[-q:].tolist()))


def check_finite(values, what: str) -> None:
    if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
        raise CheckFailed("%s: non-finite values" % what)
