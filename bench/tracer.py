"""Span tracer that times the arpg library's layers from outside the library.

`Tracer.wrap` replaces a module or class attribute with a timing shim;
`install` puts every shim in place and `uninstall` restores the originals, so
an untraced operation runs exactly the library's own functions. Spans are
kept in flat arrays (name, start, end, parent, operation) and written out
once, when the run ends. Self time (a span's duration minus the time its
child spans cover) is summed per span name as spans close.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

# Per-layer metric -> (span or counter name, what): "self" or "incl" seconds
# as ms, "calls", or a "counter". Every time is self time except the prefill's,
# a phase whose children (content passes) are reported on their own.
LAYER_METRICS = {
    "numcore.matmul_ms": ("numcore.matmul", "self"),
    "numcore.backward_ms": ("numcore.backward", "self"),
    "numcore.cross_entropy_ms": ("numcore.cross_entropy", "self"),
    "numcore.grad_copies": ("numcore.grad_copies", "counter"),
    "numcore.grad_copy_mb": ("numcore.grad_copy_mb", "counter"),
    "numcore.rowwise_matmul_ms": ("numcore.rowwise_matmul", "self"),
    "numcore.rowwise_matmul_calls": ("numcore.rowwise_matmul", "calls"),
    "numcore.rowwise_matmul_mb": ("numcore.rowwise_matmul_mb", "counter"),
    "attention.forward_ms": ("attention.forward", "self"),
    "attention.backward_ms": ("attention.backward", "self"),
    "attention.rope_ms": ("attention.rope", "self"),
    "attention.rows_ms": ("attention.rows", "self"),
    "attention.rows_calls": ("attention.rows", "calls"),
    "attention.rows_loop_calls": ("attention.rows_loop_calls", "counter"),
    "model.forward_train_ms": ("model.forward_train", "self"),
    "model.pass1_ms": ("model.pass1", "self"),
    "model.pass1_calls": ("model.pass1", "calls"),
    "model.pass1_rows": ("model.pass1_rows", "counter"),
    "model.pass2_ms": ("model.pass2", "self"),
    "model.pass2_calls": ("model.pass2", "calls"),
    "model.pass2_rows": ("model.pass2_rows", "counter"),
    "decoding.prefill_ms": ("decoding.prefill", "incl"),
    "decoding.sample_ms": ("decoding.sample", "self"),
    "decoding.sample_rows": ("decoding.sample_rows", "counter"),
    "decoding.cfg_ms": ("decoding.cfg", "self"),
    "decoding.cache_append_ms": ("decoding.cache_append", "self"),
    "decoding.cache_append_mb": ("decoding.cache_append_mb", "counter"),
    "decoding.cache_mb": ("decoding.cache_mb", "counter"),
    "decoding.loop_self_ms": ("decoding.request", "self"),
    "training.adamw_ms": ("training.adamw", "self"),
    "training.step_self_ms": ("training.train_step", "self"),
}

MB = 1e6


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple] = []  # (owner, attribute, original, shim)

    # ---------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.incl_s[name] = 0.0
            self.calls[name] = 0
        return nid

    def _open(self, nid: int, start: float) -> None:
        self._stack.append([len(self.span_start), 0.0])
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self.span_op.append(self.op)

    def _close(self, name: str, start: float, end: float) -> None:
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        d = end - start
        if self._stack:
            self._stack[-1][1] += d
        self.self_s[name] += d - covered
        self.incl_s[name] += d
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str):
        nid = self._name_id(name)
        start = time.perf_counter()
        self._open(nid, start)
        try:
            yield
        finally:
            self._close(name, start, time.perf_counter())

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    # ---------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Time owner.attr as span `name`; counts(args) yields (counter, value)."""
        original = getattr(owner, attr)
        nid = self._name_id(name)
        perf = time.perf_counter

        def shim(*args, **kwargs):
            start = perf()
            self._open(nid, start)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(name, start, perf())
                if counts is not None:
                    for counter, value in counts(args):
                        self.count(counter, value)

        shim.__wrapped__ = original
        self._patches.append((owner, attr, original, shim))

    def wrap_counter(self, owner, attr: str, counts) -> None:
        """Count calls of owner.attr without a span."""
        original = getattr(owner, attr)

        def shim(*args, **kwargs):
            for counter, value in counts(args):
                self.count(counter, value)
            return original(*args, **kwargs)

        shim.__wrapped__ = original
        self._patches.append((owner, attr, original, shim))

    def install(self) -> None:
        for owner, attr, _, shim in self._patches:
            setattr(owner, attr, shim)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- results

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric as a mean per traced operation (0 if unused)."""
        out = {}
        for metric, (key, what) in LAYER_METRICS.items():
            if what == "counter":
                value = self.counters.get(key, 0.0)
            elif what == "calls":
                value = self.calls.get(key, 0)
            else:
                seconds = (self.incl_s if what == "incl" else self.self_s).get(key, 0.0)
                value = 1e3 * seconds
            out[metric] = value / ops
        return out

    def save(self, path) -> None:
        """Write every span as arrays: name id, start, end, parent index, op."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 op=np.frombuffer(self.span_op, dtype=np.int64))


def _rowwise_counts(args):
    a, b = args[0], args[1]
    m, k = a.shape
    n = b.shape[1]
    # operands plus result, from shapes: a computed figure, not a measured one
    yield "numcore.rowwise_matmul_mb", (m * k + k * n + m * n) * a.itemsize / MB


def _rows_counts(args):
    lens = np.asarray(args[3])
    if args[0].shape[0] > 1 and not (lens == lens[0]).all():
        yield "attention.rows_loop_calls", 1


def _grad_copy_counts(args):
    tensor, g = args[0], args[1]
    if tensor.grad is None:  # a fresh buffer filled by copy, not an adopted one
        yield "numcore.grad_copies", 1
        yield "numcore.grad_copy_mb", np.asarray(g).nbytes / MB


def _append_counts(args):
    yield "decoding.cache_append_mb", (args[2].nbytes + args[3].nbytes) / MB


def arpg_tracer() -> Tracer:
    """A tracer wrapping each layer's public entry points in the arpg package.

    Names imported with `from ... import` are patched in the importing module
    too, since that module calls its own binding.
    """
    import arpg.attention as at
    import arpg.decoding as dec
    import arpg.model as md
    import arpg.numcore as nc
    import arpg.training as tr

    t = Tracer()
    t.wrap(nc, "matmul", "numcore.matmul")
    t.wrap(nc.Tensor, "backward", "numcore.backward")
    t.wrap(nc, "cross_entropy", "numcore.cross_entropy")
    t.wrap_counter(nc.Tensor, "_accumulate", _grad_copy_counts)
    t.wrap(md, "rowwise_matmul", "numcore.rowwise_matmul", _rowwise_counts)
    t.wrap(at, "attention_forward", "attention.forward")
    t.wrap(at, "attention_backward", "attention.backward")
    t.wrap(md, "apply_rope", "attention.rope")
    t.wrap(md, "rotate_pairs", "attention.rope")
    t.wrap(at, "rotate_pairs", "attention.rope")
    t.wrap(md, "attention_rows", "attention.rows", _rows_counts)
    t.wrap(tr, "forward_train_batch", "model.forward_train")
    t.wrap(md, "forward_pass1", "model.pass1",
           lambda a: [("model.pass1_rows", len(a[1]))])
    t.wrap(md, "forward_pass2", "model.pass2",
           lambda a: [("model.pass2_rows", len(a[1]))])
    t.wrap(dec, "_prefill", "decoding.prefill")
    t.wrap(dec, "sample_tokens", "decoding.sample",
           lambda a: [("decoding.sample_rows", np.shape(a[0])[0])])
    t.wrap(dec, "cfg_combine", "decoding.cfg")
    t.wrap(dec.KvCache, "layer_append", "decoding.cache_append", _append_counts)
    t.wrap(dec.KvCache, "out_append", "decoding.cache_append", _append_counts)
    t.wrap(tr, "adamw_update", "training.adamw")
    return t
