"""Checkpoint round-trips: values, bytes, optimizer state, rng snapshots."""

import filecmp
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arpg import checkpoint as ck
from arpg import model as md
from arpg import training as tr


def tiny_params(seed=0, dtype=np.float32):
    cfg = md.ModelConfig(vocab_size=16, num_classes=4, hidden=32, heads=4,
                         pass1_layers=2, pass2_layers=2, seq_len=16)
    return md.ArpgParams.init(cfg, np.random.default_rng(seed), dtype)


def test_value_round_trip(tmp_path):
    params = tiny_params(seed=1)
    path = tmp_path / "model.ckpt"
    ck.save_checkpoint(path, params, extra={"note": "hello", "step": 5})
    loaded = ck.load_checkpoint(path)
    assert loaded.params.config == params.config
    assert loaded.params.dtype == params.dtype
    for a, b in zip(params.parameters(), loaded.params.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.data, b.data)
    assert loaded.meta["extra"] == {"note": "hello", "step": 5}
    assert loaded.optim is None


def test_byte_identical_double_round_trip(tmp_path):
    params = tiny_params(seed=2)
    optim = tr.OptimState.init(params, lr=1e-3)
    optim.m[params.parameters()[0].name] += 0.25
    optim.step = 7
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck.save_checkpoint(p1, params, optim, extra={"z": 1, "a": [2, 3]})
    loaded = ck.load_checkpoint(p1)
    ck.save_checkpoint(p2, loaded.params, loaded.optim,
                       extra=loaded.meta["extra"])
    assert filecmp.cmp(p1, p2, shallow=False)


def test_optimizer_state_round_trip(tmp_path):
    params = tiny_params(seed=3, dtype=np.float64)
    optim = tr.OptimState.init(params, lr=2e-3, betas=(0.8, 0.9),
                               weight_decay=0.01)
    ds = tr.make_dataset(tr.ToyDatasetSpec(grid_h=4, grid_w=4), 8,
                         np.random.default_rng(4))
    tr.train_step(params, optim, tr.dataset_arrays(ds), np.random.default_rng(5))
    path = tmp_path / "opt.ckpt"
    ck.save_checkpoint(path, params, optim)
    loaded = ck.load_checkpoint(path)
    assert loaded.optim.step == optim.step
    assert loaded.optim.betas == (0.8, 0.9)
    for name in optim.m:
        assert np.array_equal(loaded.optim.m[name], optim.m[name])
        assert np.array_equal(loaded.optim.v[name], optim.v[name])


def test_resume_from_checkpoint_is_bit_exact(tmp_path):
    spec = tr.ToyDatasetSpec(grid_h=4, grid_w=4)
    ds = tr.make_dataset(spec, 32, np.random.default_rng(6))
    cfg = tr.TrainConfig(steps=6, batch_size=8, seed=7)

    params = tiny_params(seed=8)
    rng = np.random.default_rng(cfg.seed)
    _, straight = tr.train_loop(params, ds, cfg, rng=rng)

    params2 = tiny_params(seed=8)
    rng2 = np.random.default_rng(cfg.seed)
    optim2, h1 = tr.train_loop(params2, ds, cfg, rng=rng2, stop_step=3)
    path = tmp_path / "snap.ckpt"
    ck.save_checkpoint(path, params2, optim2,
                       extra={"loop_step": 3, "rng_state": ck.rng_state(rng2)})
    loaded = ck.load_checkpoint(path)
    rng3 = ck.restore_rng(loaded.meta["extra"]["rng_state"])
    _, h2 = tr.train_loop(loaded.params, ds, cfg, optim=loaded.optim,
                          rng=rng3, start_step=loaded.meta["extra"]["loop_step"])
    assert [h["loss"] for h in straight] == [h["loss"] for h in h1 + h2]


def test_bad_files_rejected(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPTxxxxxxxxxxxx")
    with pytest.raises(ValueError):
        ck.load_checkpoint(bad)
    params = tiny_params()
    good = tmp_path / "good.ckpt"
    ck.save_checkpoint(good, params)
    blob = bytearray(good.read_bytes())
    blob[8] = 99  # version field
    bad2 = tmp_path / "bad2.ckpt"
    bad2.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        ck.load_checkpoint(bad2)


def test_version_1_file_rejected_by_its_version(tmp_path):
    # version 1 held separate wq/wk/wv/w1/w3 arrays; the header turns it away
    path = tmp_path / "old.ckpt"
    ck.save_checkpoint(path, tiny_params())
    blob = bytearray(path.read_bytes())
    blob[8:12] = np.uint32(1).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"old\.ckpt has checkpoint format version 1, expected 2"):
        ck.load_checkpoint(path)


def test_truncated_file_names_file_and_array(tmp_path):
    path = tmp_path / "cut.ckpt"
    ck.save_checkpoint(path, tiny_params())
    blob = path.read_bytes()
    last = max(ck.load_checkpoint(path).params.parameters(), key=lambda p: p.name)
    path.write_bytes(blob[:-100])
    with pytest.raises(ValueError, match=r"cut\.ckpt is truncated: array 'param\.%s'"
                       % last.name.replace(".", r"\.")):
        ck.load_checkpoint(path)
    path.write_bytes(blob[:30])
    with pytest.raises(ValueError, match="truncated inside its manifest"):
        ck.load_checkpoint(path)


def _drop(name):
    return lambda arrays: [e for e in arrays if e["name"] != name]


def _reshape(name, shape):
    return lambda arrays: [dict(e, shape=shape) if e["name"] == name else e for e in arrays]


def _add_alias(name, of):
    return lambda arrays: arrays + [dict(next(e for e in arrays if e["name"] == of), name=name)]


@pytest.mark.parametrize("edit, text", [
    (_drop("param.head.proj"), "checkpoint missing array 'param.head.proj'"),
    (_reshape("param.final.norm", [4, 8]),
     "array 'param.final.norm' has shape (4, 8), expected (32,)"),
    (_drop("optim.v.head.proj"), "checkpoint missing array 'optim.v.head.proj'"),
    (_add_alias("param.spare", "param.kv.norm"), "checkpoint holds unknown arrays: param.spare")],
    ids=["missing_param", "wrong_shape", "missing_moment", "unknown_array"])
def test_manifest_errors_name_the_array(tmp_path, edit, text):
    # a manifest rewritten over an intact payload: every array still reads
    # in bounds, so only the check against the model's own arrays can fail
    path = tmp_path / "edited.ckpt"
    params = tiny_params()
    ck.save_checkpoint(path, params, tr.OptimState.init(params, lr=1e-3))
    blob = path.read_bytes()
    size = int(np.frombuffer(blob[12:20], np.uint64)[0])
    manifest = json.loads(blob[20:20 + size])
    manifest["arrays"] = edit(manifest["arrays"])
    rewritten = json.dumps(manifest).encode()
    path.write_bytes(blob[:12] + np.uint64(len(rewritten)).tobytes() + rewritten
                     + blob[20 + size:])
    with pytest.raises(ValueError) as err:
        ck.load_checkpoint(path)
    assert str(err.value) == text


def test_failed_save_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "snap.ckpt"
    ck.save_checkpoint(path, tiny_params(seed=1))
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError("no space left on device")
    monkeypatch.setattr(ck.os, "fsync", disk_full)
    with pytest.raises(OSError, match="no space"):
        ck.save_checkpoint(path, tiny_params(seed=2))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snap.ckpt"]
    monkeypatch.undo()
    ck.save_checkpoint(path, tiny_params(seed=2))
    assert np.array_equal(ck.load_checkpoint(path).params.head.data,
                          tiny_params(seed=2).head.data)


# ---------------------------------------------------------------- properties

def _small_params(seed, shared, pass1_layers, dtype):
    cfg = md.ModelConfig(vocab_size=8, num_classes=2, hidden=8, heads=2, seq_len=4,
                         pass1_layers=pass1_layers, pass2_layers=2, shared_kv=shared)
    return md.ArpgParams.init(cfg, np.random.default_rng(seed), dtype)


def _saved_blob() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "whole.ckpt"
        params = _small_params(0, False, 1, np.float32)
        ck.save_checkpoint(path, params, tr.OptimState.init(params, lr=1e-3))
        return path.read_bytes()


WHOLE = _saved_blob()


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt_props")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), shared=st.booleans(), pass1_layers=st.integers(0, 2),
       dtype=st.sampled_from([np.float32, np.float64]), with_optim=st.booleans())
def test_save_load_save_is_byte_identical(scratch_dir, seed, shared, pass1_layers,
                                          dtype, with_optim):
    params = _small_params(seed, shared, pass1_layers, dtype)
    optim = tr.OptimState.init(params, lr=1e-3) if with_optim else None
    if optim is not None:
        for name in optim.m:
            optim.m[name] += np.asarray(seed % 7, dtype=dtype)
    p1, p2 = scratch_dir / "a.ckpt", scratch_dir / "b.ckpt"
    ck.save_checkpoint(p1, params, optim, extra={"seed": seed})
    loaded = ck.load_checkpoint(p1)
    ck.save_checkpoint(p2, loaded.params, loaded.optim, extra=loaded.meta["extra"])
    assert p1.read_bytes() == p2.read_bytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cut=st.integers(0, len(WHOLE) - 1))
@example(cut=8)   # magic only: no version field
@example(cut=12)  # version only: no manifest length
def test_file_cut_at_any_byte_raises_value_error_naming_it(scratch_dir, cut):
    path = scratch_dir / "cut_at.ckpt"
    path.write_bytes(WHOLE[:cut])
    with pytest.raises(ValueError, match=r"cut_at\.ckpt"):
        ck.load_checkpoint(path)


def test_rng_state_round_trip():
    rng = np.random.default_rng(123)
    rng.random(17)
    state = ck.rng_state(rng)
    clone = ck.restore_rng(state)
    assert np.array_equal(rng.random(5), clone.random(5))
