"""Binary checkpoint I/O for parameters, optimizer state, and run metadata.

Layout, all little-endian:

    bytes 0-7    magic "ARPGCKPT"
    bytes 8-11   format version (u32)
    bytes 12-19  manifest length in bytes (u64)
    manifest     UTF-8 JSON, sorted keys, no whitespace
    payload      raw C-order array bytes, concatenated in manifest order

The manifest lists every array as {name, dtype, shape, offset, nbytes} sorted
by name, plus a meta object (model config, optimizer hyperparameters, caller
extras such as the loop step and rng state). Everything is written in one
canonical order, so save -> load -> save reproduces the file byte for byte.

A save goes to a temporary file beside the target, is flushed to disk, and
then replaces the target in one rename, so a run killed mid-save leaves the
previous checkpoint whole. A load checks every array against the payload and
names the file and the array when the file is cut short.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .model import ArpgParams, ModelConfig
from .training import OptimState

MAGIC = b"ARPGCKPT"
VERSION = 2  # 2: fused wqkv / w13 / wkv arrays; older files are rejected


@dataclass
class Checkpoint:
    params: ArpgParams
    optim: OptimState | None
    meta: dict


def _canonical(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr.astype(arr.dtype.newbyteorder("<"), copy=False))


def _collect_arrays(params: ArpgParams,
                    optim: OptimState | None) -> dict[str, np.ndarray]:
    arrays = {"param." + p.name: p.data for p in params.parameters()}
    if optim is not None:
        for name, m in optim.m.items():
            arrays["optim.m." + name] = m
        for name, v in optim.v.items():
            arrays["optim.v." + name] = v
    return arrays


def save_checkpoint(path, params: ArpgParams, optim: OptimState | None = None,
                    extra: dict | None = None) -> None:
    """Write params (+ optimizer moments and JSON-able extras) to path."""
    arrays = {k: _canonical(v) for k, v in _collect_arrays(params, optim).items()}
    entries = []
    offset = 0
    for name in sorted(arrays):
        arr = arrays[name]
        entries.append({"name": name, "dtype": arr.dtype.str,
                        "shape": list(arr.shape), "offset": offset,
                        "nbytes": arr.nbytes})
        offset += arr.nbytes
    meta = {"model": asdict(params.config),
            "model_dtype": np.dtype(params.dtype).str,
            "extra": extra or {}}
    if optim is not None:
        meta["optim"] = {"lr": optim.lr, "betas": list(optim.betas),
                         "weight_decay": optim.weight_decay, "eps": optim.eps,
                         "step": optim.step}
    manifest = json.dumps({"arrays": entries, "meta": meta},
                          sort_keys=True, separators=(",", ":")).encode()
    path = os.fspath(path)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.uint32(VERSION).tobytes())
            fh.write(np.uint64(len(manifest)).tobytes())
            fh.write(manifest)
            for e in entries:
                fh.write(arrays[e["name"]].tobytes(order="C"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint back; arrays are copied out of the file buffer."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ValueError("%s is not a checkpoint file (bad magic)" % path)
    if len(blob) < 20:
        raise ValueError("%s is truncated inside its 20-byte header" % path)
    version = int(np.frombuffer(blob[8:12], np.uint32)[0])
    if version != VERSION:
        raise ValueError("%s has checkpoint format version %d, expected %d"
                         % (path, version, VERSION))
    man_len = int(np.frombuffer(blob[12:20], np.uint64)[0])
    if len(blob) < 20 + man_len:
        raise ValueError("%s is truncated inside its manifest" % path)
    manifest = json.loads(blob[20:20 + man_len].decode())
    payload = blob[20 + man_len:]
    arrays = {}
    for e in manifest["arrays"]:
        end = e["offset"] + e["nbytes"]
        if end > len(payload):
            raise ValueError("%s is truncated: array %r needs payload bytes up to %d, "
                             "the file holds %d" % (path, e["name"], end, len(payload)))
        raw = payload[e["offset"]:end]
        arrays[e["name"]] = np.frombuffer(raw, dtype=np.dtype(e["dtype"])) \
            .reshape(e["shape"]).copy()
    meta = manifest["meta"]
    config = ModelConfig(**meta["model"])
    dtype = np.dtype(meta["model_dtype"])
    params = ArpgParams.init(config, np.random.default_rng(0), dtype)
    seen = set()
    for p in params.parameters():
        key = "param." + p.name
        if key not in arrays:
            raise ValueError("checkpoint missing array %r" % key)
        if arrays[key].shape != p.data.shape:
            raise ValueError("array %r has shape %r, expected %r"
                             % (key, arrays[key].shape, p.data.shape))
        p.data[...] = arrays[key]
        seen.add(key)
    optim = None
    if "optim" in meta:
        o = meta["optim"]
        optim = OptimState(lr=o["lr"], betas=tuple(o["betas"]),
                           weight_decay=o["weight_decay"], eps=o["eps"],
                           step=o["step"])
        for p in params.parameters():
            for group, store in (("optim.m.", optim.m), ("optim.v.", optim.v)):
                key = group + p.name
                if key not in arrays:
                    raise ValueError("checkpoint missing array %r" % key)
                store[p.name] = arrays[key]
                seen.add(key)
    unknown = set(arrays) - seen
    if unknown:
        raise ValueError("checkpoint holds unknown arrays: %s"
                         % ", ".join(sorted(unknown)))
    return Checkpoint(params=params, optim=optim, meta=meta)


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-able snapshot of a numpy Generator."""
    return rng.bit_generator.state


def restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng
