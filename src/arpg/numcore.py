"""Dense-tensor numerics with reverse-mode differentiation on numpy arrays.

A tape of (parents, backward) links built op by op; backward() walks it in
reverse topological order. Double precision is used in gradient tests, single
precision in training; ops never change the dtype they are given.

backward() consumes the graph: each node is released as soon as its backward
has run (closure, parent links and .grad dropped), so saved activations and
gradients die as the walk passes them. Only leaves keep .grad: Parameters,
and any requires_grad tensor without a backward. A caller that wants the
gradient of an intermediate value makes it a leaf. A released node reads as
a leaf, so a graph cannot be walked twice.

Gradient buffers of non-leaf tensors are adopted rather than allocated: the
first gradient a backward hands to a non-leaf parent becomes that parent's
.grad outright when it is a private array (owns its data, right shape and
dtype, not already adopted by another parent in the same call). The child's
own .grad qualifies, since the child is released right after. Views are
copied. A backward must therefore never return an owned array that it keeps
using elsewhere. A backward may overwrite g, its node's own private .grad.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

# ---------------------------------------------------------------- tape core

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Suspend graph recording inside the block."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """N-d array with an optional grad buffer and a link into the tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def backward(self) -> None:
        """Reverse-mode accumulation from a scalar root; consumes the graph.

        Every node with a backward is released once processed; afterwards
        only leaves hold .grad (see the module docstring).
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar root, got shape %r" % (self.shape,))
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()  # reverse topological order; the list lets go of it
            backward, parents, g = node._backward, node._parents, node.grad
            if backward is None:
                continue
            node._backward, node._parents, node.grad = None, (), None
            if g is None:
                continue
            grads = backward(g)
            del backward, g  # free the closure's saved arrays before any copy below
            adopted: list[np.ndarray] = []
            for parent, pg in zip(parents, grads):
                if pg is None or not parent.requires_grad:
                    continue
                # a private gradient becomes one non-leaf's buffer (see top)
                if (parent.grad is None and parent._backward is not None
                        and not any(pg is a for a in adopted)
                        and _fresh_buffer_for(pg, parent)):
                    parent.grad = pg
                    adopted.append(pg)
                else:
                    parent._accumulate(pg)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def _accumulate_at(self, idx, g: np.ndarray) -> None:
        """Add g into the region idx of .grad, zero elsewhere on first touch."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[idx] += g

    def __repr__(self):
        return "Tensor(shape=%r, dtype=%s, requires_grad=%r)" % (
            self.shape, self.dtype, self.requires_grad)


class Parameter(Tensor):
    """Named leaf tensor; grad preallocated so unused parameters report exact zeros."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return "Parameter(%r, shape=%r)" % (self.name, self.shape)


def _fresh_buffer_for(g: np.ndarray, t: Tensor) -> bool:
    """g owns its writable memory and has t's shape and dtype."""
    return (g.flags.owndata and g.flags.writeable
            and g.shape == t.shape and g.dtype == t.dtype)


def from_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """Wrap an op result; backward(g) must return per-parent grads (None to skip)."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.grad[...] = 0


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` across the axes numpy broadcasting expanded."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------- arithmetic

def _as_const(x, like: Tensor) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=like.dtype)


def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        def bwd(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
        return from_op(a.data + b.data, (a, b), bwd)
    c = _as_const(b, a)

    def bwd(g):
        return (_unbroadcast(g, a.shape),)
    return from_op(a.data + c, (a,), bwd)


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        def bwd(g):
            return (_unbroadcast(g * b.data, a.shape),
                    _unbroadcast(g * a.data, b.shape))
        return from_op(a.data * b.data, (a, b), bwd)
    c = _as_const(b, a)

    def bwd(g):
        return (_unbroadcast(g * c, a.shape),)
    return from_op(a.data * c, (a,), bwd)


def _gemm_into(shape: tuple[int, ...], x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """x2 @ y2 written straight into a fresh array of `shape` (no reshape view)."""
    out = np.empty(shape, dtype=np.result_type(x2, y2))
    np.matmul(x2, y2, out=out.reshape(x2.shape[0], y2.shape[1]))
    return out


def gemm_rows(a: Tensor, w: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """a [..., d] @ w [d, f] as one [N, d] gemm: (a as [N, d], a fresh [..., f] product)."""
    if w.ndim != 2 or a.shape[-1] != w.shape[0]:
        raise ValueError("gemm takes [..., d] @ [d, f], got %r @ %r" % (a.shape, w.shape))
    a2 = a.data.reshape(-1, a.shape[-1])
    return a2, _gemm_into(a.shape[:-1] + w.shape[1:], a2, w.data)


def gemm_rows_grads(a: Tensor, a2: np.ndarray, w: Tensor,
                    g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(da, dw) of gemm_rows at output gradient g; dw is one a2^T @ g2 gemm, not a stack."""
    g2 = g.reshape(-1, g.shape[-1])
    return _gemm_into(a.shape, g2, w.data.T), a2.T @ g2


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., d] @ [d, f] (see gemm_rows)."""
    a2, out = gemm_rows(a, b)
    return from_op(out, (a, b), lambda g: gemm_rows_grads(a, a2, b, g))


def residual_matmul(x: Tensor, a: Tensor, w: Tensor,
                    keep: np.ndarray | None = None) -> Tensor:
    """x + (a @ w) * keep ([..., d] @ [d, f], keep optional), as one node.

    The gemm writes the sum's buffer, so the tape holds no separate product;
    the backward reads a and w only. Bit for bit add(x, mul(matmul(a, w), keep)).
    """
    a2, out = gemm_rows(a, w)
    if x.shape != out.shape:
        raise ValueError("residual %r does not match the product %r" % (x.shape, out.shape))
    if keep is not None:
        out *= keep
    out += x.data

    def bwd(g):
        # x takes g itself; the gemms have read it by then
        return (g,) + gemm_rows_grads(a, a2, w, g if keep is None else g * keep)
    return from_op(out, (x, a, w), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape

    def bwd(g):
        return (g.reshape(old),)
    return from_op(np.ascontiguousarray(x.data).reshape(shape), (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    def bwd(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),)
    return from_op(np.asarray(x.data.sum()), (x,), bwd)


# ---------------------------------------------------------------- nonlinear ops

def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) in a fresh array, one fixed op sequence."""
    sig = np.negative(a)
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    return sig


def swiglu(h: Tensor) -> Tensor:
    """silu(a) * b for h = a|b [..., 2f], as one node holding only h."""
    f = h.shape[-1] // 2
    a, b = h.data[..., :f], h.data[..., f:]
    out = a * _sigmoid(a)
    out *= b

    def bwd(g):
        # da = sig * (1 + a * (1 - sig)) * (g * b), db = g * silu(a), in one
        # buffer; db holds g * b until da is done. sig is recomputed from a,
        # bit for bit the forward's
        sig = _sigmoid(a)
        d = np.empty(h.shape, dtype=h.dtype)
        da, db = d[..., :f], d[..., f:]
        np.multiply(g, b, out=db)
        np.subtract(1.0, sig, out=da)
        da *= a
        da += 1.0
        da *= sig
        da *= db
        np.multiply(a, sig, out=db)
        db *= g
        return (d,)
    return from_op(out, (h,), bwd)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot product over the last axis, kept as a trailing unit axis."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    # x [..., d], gain [d]; y = xs * gain with xs = x / rms(x); only the
    # per-row scale s is saved, xs = x * s is recomputed bit for bit
    n = x.shape[-1]
    s = 1.0 / np.sqrt(_rowdot(x.data, x.data) / n + eps)

    def bwd(g):
        # dx = s * (gy - xs * mean(gy * xs)) with gy = g * gain
        xs = x.data * s
        gy = g * gain.data
        t = xs * (_rowdot(gy, xs) / n)
        gy -= t
        gy *= s
        dgain = np.einsum("ri,ri->i", g.reshape(-1, n), xs.reshape(-1, n))
        return gy, dgain
    return from_op(x.data * s * gain.data, (x, gain), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean NLL of targets under softmax(logits); logits [N, V], targets int [N]."""
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects 2-d logits, got %r" % (logits.shape,))
    t = np.asarray(targets)
    n, v = logits.shape
    if t.shape != (n,):
        raise ValueError("targets shape %r does not match logits rows %d" % (t.shape, n))
    if t.min() < 0 or t.max() >= v:
        raise IndexError("target id out of range [0, %d)" % v)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    loss = (lse - z[np.arange(n), t]).mean()

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), t] -= 1.0
        return (p * (g / n),)
    return from_op(np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: table [R, d], ids int [...] -> [..., d]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("embedding id out of range [0, %d)" % table.shape[0])
    out = table.data[ids]

    def bwd(g):
        # segment sums over sorted ids, added into the rows they touch only
        flat = ids.reshape(-1)
        if not flat.size:
            return (None,)
        order = np.argsort(flat, kind="stable")
        rows = flat[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        sums = np.add.reduceat(g.reshape(-1, table.shape[-1])[order], starts, axis=0)
        table._accumulate_at(rows[starts], sums)
        return (None,)
    return from_op(out, (table,), bwd)


# ---------------------------------------------------------------- inference helper

def rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a [m, k] @ b [k, n] with one independent [1, k] core per row.

    Rows are fed to the stacked-matmul gufunc as separate stack entries,
    never as rows of one gemm call, so a row's bits depend only on its own
    data: any sub-batch, m = 1 included, reproduces the row exactly. The
    decoding engine relies on this for joint-vs-separate and
    cached-vs-recomputed bit equality; plain gemm does not have the property.
    """
    return np.matmul(a[:, None, :], b[None])[:, 0]
