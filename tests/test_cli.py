"""Command-line round trips: files written, exit codes, resume, determinism."""

import io
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arpg import checkpoint as ck
from arpg import numcore as nc
from arpg.cli import main, run_bench
from arpg.decoding import DecodeConfig, cache_scalar_count
from arpg.model import ArpgParams, ModelConfig, forward_train_batch, param_count
from arpg.ordering import DecodeSchedule, schedule_counts


def write_cfg(path: Path, entries: dict) -> str:
    path.write_text(json.dumps(entries, indent=2))
    return str(path)


def tiny_cfg(out_dir, **extra) -> dict:
    cfg = {
        "out_dir": str(out_dir),
        "model.vocab_size": 16, "model.num_classes": 4,
        "model.hidden": 32, "model.heads": 4,
        "model.pass1_layers": 2, "model.pass2_layers": 2,
        "model.seq_len": 16,
        "data.grid_h": 4, "data.grid_w": 4,
        "data.n": 48, "data.seed": 0,
        "train.steps": 6, "train.batch_size": 8, "train.seed": 0,
        "train.log_every": 100,
    }
    cfg.update(extra)
    return cfg


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One 6-step tiny training run shared by the decode-side commands."""
    out = tmp_path_factory.mktemp("cli_train")
    cfg = write_cfg(out / "cfg.json", tiny_cfg(out))
    assert main(["train", "--config", cfg]) == 0
    return out


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "nope.json" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json",
                    tiny_cfg(tmp_path / "out", **{"train.bogus": 1}))
    assert main(["train", "--config", cfg]) == 2
    assert "train.bogus" in capsys.readouterr().err


def test_train_writes_config_metrics_checkpoint(trained):
    resolved = json.loads((trained / "config.json").read_text())
    assert resolved["model.hidden"] == 32
    recs = read_jsonl(trained / "metrics.jsonl")
    assert [r["step"] for r in recs] == list(range(6))
    assert all(np.isfinite(r["loss"]) for r in recs)
    assert all(r["clipped"] == (r["grad_norm"] > 1.0) for r in recs)
    loaded = ck.load_checkpoint(trained / "model.ckpt")
    assert loaded.params.config.hidden == 32
    assert loaded.optim is not None


def test_resume_matches_uninterrupted(tmp_path):
    a = tmp_path / "straight"
    cfg_a = write_cfg(tmp_path / "a.json",
                      tiny_cfg(a, **{"train.steps": 8,
                                     "train.snapshot_every": 4}))
    assert main(["train", "--config", cfg_a]) == 0
    snap = a / "snapshot_000004.ckpt"
    assert snap.exists()

    b = tmp_path / "resumed"
    cfg_b = write_cfg(tmp_path / "b.json",
                      tiny_cfg(b, **{"train.steps": 8,
                                     "train.resume": str(snap)}))
    assert main(["train", "--config", cfg_b]) == 0

    ra, rb = read_jsonl(a / "metrics.jsonl"), read_jsonl(b / "metrics.jsonl")
    assert len(ra) == 8 and len(rb) == 4
    for x, y in zip(ra[4:], rb):
        for key in ("step", "loss", "grad_norm", "clipped", "lr"):
            assert x[key] == y[key]
    fa = ck.load_checkpoint(a / "model.ckpt").params
    fb = ck.load_checkpoint(b / "model.ckpt").params
    for pa, pb in zip(fa.parameters(), fb.parameters()):
        assert np.array_equal(pa.data, pb.data)


def _resume_without_optimizer(tmp_path, trained) -> str:
    """A train.resume override naming the shared checkpoint saved without its moments."""
    loaded = ck.load_checkpoint(trained / "model.ckpt")
    ck.save_checkpoint(tmp_path / "bare.ckpt", loaded.params, extra=loaded.meta["extra"])
    return "train.resume=%s" % (tmp_path / "bare.ckpt")


@pytest.mark.parametrize("setting, text", [
    ("data.seed=1", "different dataset"),
    ("train.steps=3", "past train.steps 3"),
    ("model.hidden=64", "model config does not match"),
    ("train.beta1=0.5", "betas/weight_decay do not match"),
    ("train.beta2=0.5", "betas/weight_decay do not match"),
    ("train.weight_decay=0.5", "betas/weight_decay do not match"),
    pytest.param(_resume_without_optimizer, "holds no optimizer state", id="no_optimizer")])
def test_bad_resume_exits_2_before_writing(trained, tmp_path, capsys, setting, text):
    # the shared checkpoint was saved at loop_step 6 of seed-0 data, with the
    # default optimizer settings
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "cfg.json",
                    tiny_cfg(out, **{"train.resume": str(trained / "model.ckpt")}))
    if callable(setting):
        setting = setting(tmp_path, trained)
    assert main(["train", "--config", cfg, setting]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, text", [
    ("train.grad_clip=-1", "grad_clip must be None or finite and > 0"),
    ("train.lr=0", "lr must be finite and > 0"),
    ("train.beta1=1.0", "beta1 must be in [0, 1)"),
    ("train.beta2=1.5", "beta2 must be in [0, 1)"),
    ("train.min_lr=NaN", "min_lr must be finite and >= 0"),
    ("train.warmup_frac=NaN", "warmup_frac must be in [0, 1]"),
    ("train.weight_decay=-1e9", "weight_decay must be finite and >= 0"),
    ("train.class_dropout=NaN", "class_dropout must be in [0, 1]"),
    ("data.n=0", "data.n must be >= 1"),
    ("data.background=20", "unknown config keys: data.background"),
    ("data.match_threshold=0.5", "unknown config keys: data.match_threshold"),
    ("data.purity_threshold=0.5", "unknown config keys: data.purity_threshold"),
    ("model.pass2_layers=true", "pass2_layers must be an integer"),
    ("train.batch_size=true", "batch_size must be an integer"),
    ("data.grid_h=4.0", "grid_h must be an integer"),
    ("model.heads=0", "need hidden >= 1 and heads >= 1"),
    ("model.heads=-4", "need hidden >= 1 and heads >= 1"),
    ("model.hidden=0", "need hidden >= 1 and heads >= 1"),
    ("model.rope_base=0.0", "rope_base must be finite and > 0"),
    ("model.rope_base=NaN", "rope_base must be finite and > 0"),
    ("train.steps", "override 'train.steps' is not key=value"),
    ("data.grid_h=8", "data grid 8x4 holds 32 tokens, model.seq_len is 16"),
    ("data.vocab_size=20", "data vocab/classes (20, 4) do not match model (16, 4)"),
    ("data.num_classes=3", "data vocab/classes (16, 3) do not match model (16, 4)"),
    pytest.param(lambda tmp: "--config=%s" % write_cfg(tmp / "list.json", [1, 2]),
                 "config root must be a JSON object", id="config_root_list")])
def test_bad_train_setting_exits_2_before_writing(tmp_path, capsys, setting, text):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "cfg.json", tiny_cfg(out))
    if callable(setting):
        setting = setting(tmp_path)
    assert main(["train", "--config", cfg, setting]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


def test_generate_outputs_and_determinism(trained, tmp_path):
    outs = []
    for name in ("g1", "g2"):
        out = tmp_path / name
        cfg = write_cfg(tmp_path / (name + ".json"), {
            "out_dir": str(out), "checkpoint": str(trained / "model.ckpt"),
            "generate.n": 2, "generate.class_id": 1,
            "decode.steps": 4, "decode.seed": 7, "image.cell_px": 4,
        })
        assert main(["generate", "--config", cfg]) == 0
        outs.append(out)

    toks = (outs[0] / "sample_000.tokens.txt").read_bytes()
    assert toks == (outs[1] / "sample_000.tokens.txt").read_bytes()
    grid = np.loadtxt(outs[0] / "sample_000.tokens.txt", dtype=np.int64,
                      ndmin=2)
    assert grid.shape == (4, 4) and grid.min() >= 0 and grid.max() < 16

    sidecar = json.loads((outs[0] / "sample_000.json").read_text())
    assert sidecar["class_id"] == 1
    assert sorted(sidecar["order"]) == list(range(16))

    ppm = (outs[0] / "sample_000.ppm").read_bytes()
    assert ppm.startswith(b"P6\n16 16\n255\n")
    assert len(ppm) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3

    # distinct sample indices exist and differ in seed
    s1 = json.loads((outs[0] / "sample_001.json").read_text())
    assert s1["seed"] == sidecar["seed"] + 1


def test_readme_generate_runs(trained, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the quickstart writes train.json into the working directory first
    heredoc = readme.split("cat > train.json <<'EOF'\n", 1)[1].split("\nEOF", 1)[0]
    (tmp_path / "train.json").write_text(heredoc)
    line = next(ln for ln in readme.replace("\\\n", " ").splitlines()
                if ln.startswith("arpg generate "))
    args = shlex.split(line)[1:]
    ck_path = tmp_path / next(a for a in args if a.startswith("checkpoint=")).split("=", 1)[1]
    ck_path.parent.mkdir(parents=True)
    shutil.copy(trained / "model.ckpt", ck_path)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0
    assert len(list((tmp_path / "runs" / "samples").glob("sample_*.tokens.txt"))) == 8


@pytest.mark.parametrize("n", [0, -1])
def test_bad_sample_count_exits_2_before_writing(trained, tmp_path, capsys, n):
    out = tmp_path / "out"
    assert main(["generate", "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "generate.n=%d" % n]) == 2
    assert "generate.n must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows", [0, -2])
def test_bad_demo_rows_exit_2_before_writing(tmp_path, capsys, rows):
    out = tmp_path / "out"
    assert main(["grad-demo", "out_dir=%s" % out, "demo.rows=%d" % rows]) == 2
    assert "demo.rows must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_generate_class_out_of_range_exits_2(trained, tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "out_dir": str(tmp_path / "out"),
        "checkpoint": str(trained / "model.ckpt"),
        "generate.class_id": 7,
    })
    assert main(["generate", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["generate", "inpaint", "expand", "attn-export"])
def test_bad_class_exits_2_before_writing(trained, tmp_path, capsys, command):
    np.savetxt(tmp_path / "in.txt", np.zeros((4, 4), dtype=np.int64), fmt="%d")
    out = tmp_path / "out"
    prefix = {"attn-export": "attn"}.get(command, command)
    inputs = {"inpaint": {"inpaint.input": tmp_path / "in.txt",
                          "inpaint.mask": tmp_path / "in.txt"},
              "expand": {"expand.input": tmp_path / "in.txt",
                         "expand.new_h": 4, "expand.new_w": 6},
              "attn-export": {"attn.input": tmp_path / "in.txt"}}.get(command, {})
    args = ["%s=%s" % kv for kv in inputs.items()]
    assert main([command, "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "%s.class_id=9" % prefix] + args) == 2
    assert "class_id 9 outside" in capsys.readouterr().err
    assert not (out / "config.json").exists()
    assert not out.exists()


def test_inpaint_input_of_wrong_shape_exits_2_before_writing(trained, tmp_path, capsys):
    np.savetxt(tmp_path / "in.txt", np.zeros((2, 8), dtype=np.int64), fmt="%d")
    out = tmp_path / "out"
    assert main(["inpaint", "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "inpaint.input=%s" % (tmp_path / "in.txt"),
                 "inpaint.mask=%s" % (tmp_path / "in.txt")]) == 2
    err = capsys.readouterr().err
    assert "(2, 8)" in err and "(4, 4)" in err
    assert not (out / "config.json").exists()


def test_unknown_decode_setting_exits_2_before_writing(trained, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "decode.order=bogus"]) == 2
    assert "bogus" in capsys.readouterr().err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("setting, text", [
    ("decode.top_k=2.5", "top_k must be an integer"),
    ("decode.seed=1.5", "seed must be an integer"),
    ("decode.steps=2.5", "steps must be an integer"),
    ("decode.steps=true", "steps must be an integer"),
    ("decode.top_k=true", "top_k must be an integer"),
    ("decode.temperature=NaN", "must be finite"),
    ("decode.cfg_scale=NaN", "must be finite"),
    ("decode.cfg_scale=Infinity", "must be finite"),
    ("decode.steps=100", "got 100/16"),
    pytest.param(None, "missing required config key: checkpoint", id="no_checkpoint")])
def test_bad_decode_setting_exits_2_before_writing(trained, tmp_path, capsys, setting, text):
    out = tmp_path / "out"
    # setting None leaves out the checkpoint key itself
    args = [] if setting is None else ["checkpoint=%s" % (trained / "model.ckpt"), setting]
    assert main(["generate", "out_dir=%s" % out] + args) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shape", [(-4, -4), (-2, -8)])
def test_generate_negative_grid_exits_2(trained, tmp_path, capsys, shape):
    # the product matches seq_len 16, so only the bounds check can reject it
    out = tmp_path / "out"
    assert main(["generate", "out_dir=%s" % out,
                 "checkpoint=%s" % (trained / "model.ckpt"),
                 "decode.grid_h=%d" % shape[0], "decode.grid_w=%d" % shape[1]]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "%d and %d" % shape in err
    assert not (out / "config.json").exists()


def test_inpaint_preserves_known_cells(trained, tmp_path):
    rng = np.random.default_rng(3)
    toks = rng.integers(0, 16, (4, 4))
    mask = np.zeros((4, 4), dtype=np.int64)
    mask[:2] = 1  # top half known
    np.savetxt(tmp_path / "in.txt", toks, fmt="%d")
    np.savetxt(tmp_path / "mask.txt", mask, fmt="%d")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "cfg.json", {
        "out_dir": str(out), "checkpoint": str(trained / "model.ckpt"),
        "inpaint.input": str(tmp_path / "in.txt"),
        "inpaint.mask": str(tmp_path / "mask.txt"),
        "inpaint.class_id": 2, "decode.steps": 4, "decode.seed": 1,
    })
    assert main(["inpaint", "--config", cfg]) == 0
    got = np.loadtxt(out / "inpaint.tokens.txt", dtype=np.int64, ndmin=2)
    assert got.shape == (4, 4)
    assert np.array_equal(got[mask == 1], toks[mask == 1])
    assert got.min() >= 0 and got.max() < 16


def test_inpaint_with_every_cell_known_writes_an_empty_order(trained, tmp_path):
    toks = np.random.default_rng(4).integers(0, 16, (4, 4))
    np.savetxt(tmp_path / "in.txt", toks, fmt="%d")
    np.savetxt(tmp_path / "mask.txt", np.ones((4, 4), dtype=np.int64), fmt="%d")
    out = tmp_path / "out"
    assert main(["inpaint", "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "inpaint.input=%s" % (tmp_path / "in.txt"),
                 "inpaint.mask=%s" % (tmp_path / "mask.txt")]) == 0
    assert np.array_equal(np.loadtxt(out / "inpaint.tokens.txt", dtype=np.int64), toks)
    assert json.loads((out / "inpaint.json").read_text())["order"] == []


def test_expand_outpaint_preserves_base(trained, tmp_path):
    rng = np.random.default_rng(5)
    toks = rng.integers(0, 16, (4, 4))
    np.savetxt(tmp_path / "base.txt", toks, fmt="%d")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "cfg.json", {
        "out_dir": str(out), "checkpoint": str(trained / "model.ckpt"),
        "expand.input": str(tmp_path / "base.txt"),
        "expand.new_h": 4, "expand.new_w": 6,
        "expand.mode": "outpaint", "expand.class_id": 0,
        "decode.steps": 4, "decode.seed": 2,
    })
    assert main(["expand", "--config", cfg]) == 0
    got = np.loadtxt(out / "expand.tokens.txt", dtype=np.int64, ndmin=2)
    assert got.shape == (4, 6)
    assert np.array_equal(got[:, :4], toks)


def test_expand_runs_on_a_non_square_model(tmp_path):
    # expand decodes on its target grid, so the model grid need not be square
    mc = ModelConfig(vocab_size=16, num_classes=4, hidden=16, heads=2,
                     pass1_layers=1, pass2_layers=1, seq_len=12)
    ck.save_checkpoint(tmp_path / "m.ckpt", ArpgParams.init(mc, np.random.default_rng(0)))
    np.savetxt(tmp_path / "in.txt", np.zeros((3, 4), dtype=np.int64), fmt="%d")
    out = tmp_path / "out"
    assert main(["expand", "out_dir=%s" % out, "checkpoint=%s" % (tmp_path / "m.ckpt"),
                 "expand.input=%s" % (tmp_path / "in.txt"), "expand.new_h=4",
                 "expand.new_w=6", "decode.steps=2"]) == 0
    assert np.loadtxt(out / "expand.tokens.txt", ndmin=2).shape == (4, 6)


def test_bench_reports_closed_form_cache_size(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "cfg.json", {
        "out_dir": str(out),
        "model.vocab_size": 16, "model.num_classes": 4,
        "model.hidden": 32, "model.heads": 4,
        "model.pass1_layers": 2, "model.pass2_layers": 2,
        "model.seq_len": 16,
        "bench.steps": [2, 4], "bench.patterns": ["causal"],
        "bench.batch": 2, "bench.repeats": 2,
    })
    assert main(["bench", "--config", cfg]) == 0
    report = json.loads((out / "bench.json").read_text())
    assert len(report["rows"]) == 2
    mc = ModelConfig(vocab_size=16, num_classes=4, hidden=32, heads=4,
                     pass1_layers=2, pass2_layers=2, seq_len=16)
    want = {s: cache_scalar_count(mc, 1 + 16 - schedule_counts(
        DecodeSchedule("arccos", s, 16))[-1]) for s in (2, 4)}
    for row in report["rows"]:
        assert row["pattern"] == "causal"
        assert row["cache_scalars"] == want[row["steps"]]
        assert row["wall_ms_mean"] > 0
    assert (out / "bench.txt").read_text().strip()


def test_bench_with_checkpoint_rejects_model_keys(trained, tmp_path, capsys):
    # the checkpoint fixes the model, so a model.* key would be ignored
    out = tmp_path / "out"
    assert main(["bench", "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "model.hidden=999"]) == 2
    assert "unknown config keys: model.hidden" in capsys.readouterr().err
    assert not out.exists()


def test_bench_measures_open_caches_and_dtype_bytes():
    # at steps=1 the linear CFG ramp's only scale is 1.0, so one cache opens
    mc = ModelConfig(vocab_size=16, num_classes=4, hidden=16, heads=2,
                     pass1_layers=1, pass2_layers=1, seq_len=16)
    params = ArpgParams.init(mc, np.random.default_rng(0), np.float64)
    report = run_bench(params, [1, 4], ["causal"], batch=1, repeats=1,
                       base_dc=DecodeConfig(cfg_scale=3.0))
    one = {s: cache_scalar_count(mc, 1 + 16 - schedule_counts(
        DecodeSchedule("arccos", s, 16))[-1]) for s in (1, 4)}
    assert [r["cache_scalars"] for r in report["rows"]] == [one[1], 2 * one[4]]
    for row in report["rows"]:
        assert row["resident_bytes_est"] == 8 * (param_count(mc) + row["cache_scalars"])


def test_grad_demo_payload(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"out_dir": str(out), "demo.seed": 4, "demo.rows": 8})
    assert main(["grad-demo", "--config", cfg]) == 0
    payload = json.loads((out / "grad_demo.json").read_text())
    base = payload["baseline"]
    for is_masked, dq in zip(base["masked"], base["dq_norms"]):
        if is_masked:
            assert dq > 0.0
        else:
            assert dq == 0.0
    assert payload["model_wq_grad_norms"]
    assert all(v > 0.0 for v in payload["model_wq_grad_norms"].values())


def test_attn_export_shapes_and_rows(trained, tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "cfg.json", {
        "out_dir": str(out), "checkpoint": str(trained / "model.ckpt"),
        "attn.seed": 6,
    })
    assert main(["attn-export", "--config", cfg]) == 0
    meta = json.loads((out / "attn_meta.json").read_text())
    assert meta["queries"] == 16 and meta["heads"] == 4
    p1 = np.loadtxt(out / "pass1_head0.csv", delimiter=",", ndmin=2)
    assert p1.shape == (16, 16)
    assert np.allclose(p1.sum(axis=-1), 1.0, atol=1e-5)
    upper = np.triu(np.ones_like(p1, dtype=bool), k=1)
    assert (p1[upper] == 0.0).all()
    # query j predicts content row j + 1 and, as in training, reads rows 0..j only
    for head in range(meta["heads"]):
        p2 = np.loadtxt(out / ("pass2_head%d.csv" % head), delimiter=",", ndmin=2)
        assert p2.shape == (16, 16)
        assert np.allclose(p2.sum(axis=-1), 1.0, atol=1e-5)
        assert (p2[upper] == 0.0).all()
    for name in meta["files"]:
        assert (out / name).exists()


def test_attn_export_writes_the_training_forward(trained, tmp_path):
    # the CSVs hold, to their 8 digits, the last content and query layer's
    # probs that training's forward hands its sink for the same raster tokens
    toks = np.random.default_rng(5).integers(0, 16, (4, 4))
    np.savetxt(tmp_path / "in.txt", toks, fmt="%d")
    out = tmp_path / "out"
    assert main(["attn-export", "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "attn.input=%s" % (tmp_path / "in.txt"), "attn.class_id=2"]) == 0
    params = ck.load_checkpoint(trained / "model.ckpt").params
    sink: list = []
    with nc.no_grad():
        forward_train_batch(params, toks.reshape(1, -1), np.array([params.config.class_token(2)]),
                            np.arange(1, 17)[None], probs_sink=sink)
    assert len(sink) == 4  # two content layers, then two query layers
    for stack, probs in (("pass1", sink[1]), ("pass2", sink[3])):
        for head in range(4):
            expected = io.StringIO()
            np.savetxt(expected, probs[0, head], delimiter=",", fmt="%.8e")
            assert (out / ("%s_head%d.csv" % (stack, head))).read_text() == expected.getvalue()


@pytest.mark.parametrize("bad_id", [20, 99])
def test_attn_export_rejects_ids_outside_vocab(trained, tmp_path, capsys, bad_id):
    # with vocab 16 and 4 classes, 20 is the null-class embedding row; 99 is past the table
    toks = np.zeros((4, 4), dtype=np.int64)
    toks[1, 2] = bad_id
    np.savetxt(tmp_path / "in.txt", toks, fmt="%d")
    assert main(["attn-export", "out_dir=%s" % (tmp_path / "out"),
                 "checkpoint=%s" % (trained / "model.ckpt"),
                 "attn.input=%s" % (tmp_path / "in.txt")]) == 2
    assert "config error" in capsys.readouterr().err


def test_attn_export_rejects_grid_of_wrong_shape(trained, tmp_path, capsys):
    # 2x8 holds the model's 16 tokens, but the model's grid is 4x4
    np.savetxt(tmp_path / "in.txt", np.zeros((2, 8), dtype=np.int64), fmt="%d")
    out = tmp_path / "out"
    assert main(["attn-export", "out_dir=%s" % out,
                 "checkpoint=%s" % (trained / "model.ckpt"),
                 "attn.input=%s" % (tmp_path / "in.txt")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "(2, 8)" in err and "(4, 4)" in err
    assert not (out / "config.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_run_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json",
                    tiny_cfg(tmp_path / "out",
                             **{"train.steps": 3, "train.lr": 1e9}))
    assert main(["train", "--config", cfg]) == 1
    assert "error" in capsys.readouterr().err


def test_value_error_mid_run_exits_1(trained, tmp_path, capsys, monkeypatch):
    # a check failing inside the run is a runtime failure, not bad input
    import arpg.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("q/k/v head shapes disagree")
    monkeypatch.setattr(cli, "generate", broken)
    assert main(["generate", "out_dir=%s" % (tmp_path / "out"),
                 "checkpoint=%s" % (trained / "model.ckpt")]) == 1
    err = capsys.readouterr().err
    assert "error: ValueError: q/k/v head shapes disagree" in err
    assert "config error" not in err


def test_os_error_mid_run_exits_1(tmp_path, capsys, monkeypatch):
    # a full disk while saving the checkpoint is a failure of the run
    import arpg.cli as cli

    def full(*args, **kwargs):
        raise OSError("no space left on device")
    monkeypatch.setattr(cli, "save_checkpoint", full)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "cfg.json", tiny_cfg(out, **{"train.steps": 1}))
    assert main(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: OSError: no space left on device" in err
    assert "config error" not in err
    assert (out / "config.json").exists()


def test_corrupt_checkpoint_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    assert main(["generate", "out_dir=%s" % (tmp_path / "out"), "checkpoint=%s" % bad]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("setting, text", [("expand.new_h=3", "smaller than base"),
                                           ("expand.mode=tile", "mode must be"),
                                           ("decode.grid_h=4", "not the expand target 4x6"),
                                           ("expand.input=absent.txt",
                                            "token grid file not found: absent.txt")])
def test_bad_expand_target_exits_2_before_writing(trained, tmp_path, capsys, setting, text):
    np.savetxt(tmp_path / "in.txt", np.zeros((4, 4), dtype=np.int64), fmt="%d")
    out = tmp_path / "out"
    assert main(["expand", "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "expand.input=%s" % (tmp_path / "in.txt"), "expand.new_h=4",
                 "expand.new_w=6", setting]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell_px", [-1, 0])
def test_bad_cell_px_exits_2_before_writing(trained, tmp_path, capsys, cell_px):
    out = tmp_path / "out"
    assert main(["generate", "out_dir=%s" % out, "checkpoint=%s" % (trained / "model.ckpt"),
                 "image.cell_px=%d" % cell_px]) == 2
    assert "image.cell_px must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, text", [
    ("bench.steps=[0]", "steps must be >= 1"),
    ("bench.steps=[2, 100]", "got 100/16"),
    ('bench.patterns=["causal", "diagonal"]', "diagonal"),
    ("bench.batch=0", "bench.batch"),
    ("bench.repeats=0", "bench.repeats"),
    ("bench.steps=[]", "at least one cell"),
    ("bench.patterns=[]", "at least one cell")],
    ids=["steps_0", "steps_past_total", "pattern", "batch_0", "repeats_0",
         "no_steps", "no_patterns"])
def test_bad_bench_cell_exits_2_before_writing(tmp_path, capsys, setting, text):
    # every (steps, pattern) cell is checked before the sweep writes anything
    out = tmp_path / "out"
    model = ["model.%s=%d" % kv for kv in (("vocab_size", 16), ("num_classes", 4),
                                           ("hidden", 16), ("heads", 2), ("pass1_layers", 1),
                                           ("pass2_layers", 1), ("seq_len", 16))]
    assert main(["bench", "out_dir=%s" % out, "bench.batch=1", "bench.repeats=1"]
                + model + [setting]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, setting", [
    ("train", "data.n=16.7"), ("train", "data.seed=true"), ("train", "train.log_every=5.5"),
    ("train", "train.snapshot_every=2.0"), ("train", "train.steps=2.5"),
    ("train", "train.batch_size=8.0"),
    ("generate", "generate.n=1.9"), ("generate", "generate.class_id=true"),
    ("generate", "image.cell_px=4.5"), ("expand", "expand.new_h=6.5"),
    ("expand", 'expand.new_w="6"'), ("bench", "bench.steps=[2, 4.5]"),
    ("bench", "bench.steps=[true]"), ("bench", "bench.batch=1.5"), ("bench", "bench.seed=0.5"),
    ("grad-demo", "demo.rows=8.5"), ("grad-demo", "demo.seed=false"),
    ("attn-export", "attn.seed=0.5"), ("attn-export", "attn.class_id=1.0"),
    ("train", "data.seed=-1"), ("train", "train.seed=-1"), ("generate", "decode.seed=-1"),
    ("bench", "bench.seed=-1"), ("grad-demo", "demo.seed=-3"), ("attn-export", "attn.seed=-1")])
def test_non_integer_count_exits_2_before_writing(trained, tmp_path, capsys, command, setting):
    # an integer key is never truncated: 16.7 grids or 1.9 samples is bad
    # input; nor is a seed negative, which numpy would reject only mid-run
    out = tmp_path / "out"
    np.savetxt(tmp_path / "in.txt", np.zeros((4, 4), dtype=np.int64), fmt="%d")
    ck_arg = "checkpoint=%s" % (trained / "model.ckpt")
    base = {
        "train": ["--config", write_cfg(tmp_path / "cfg.json", tiny_cfg(out))],
        "generate": [ck_arg],
        "expand": [ck_arg, "expand.input=%s" % (tmp_path / "in.txt"), "expand.new_h=4",
                   "expand.new_w=6"],
        "bench": [ck_arg, "bench.batch=1", "bench.repeats=1"],
        "grad-demo": [],
        "attn-export": [ck_arg, "attn.input=%s" % (tmp_path / "in.txt")],
    }[command]
    assert main([command, "out_dir=%s" % out] + base + [setting]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_bit_hashes_tool_is_deterministic():
    # the tool a bit-keeping change is checked with prints the same digests twice
    tool = Path(__file__).resolve().parents[1] / "tools" / "bit_hashes.py"
    cmd = [sys.executable, str(tool), "--steps", "1", "--requests", "1", "--threads", "1"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    lines = runs[0].splitlines()
    assert runs[0] == runs[1] and len(lines) == 9
    assert all(len(ln.rsplit(": ", 1)[1]) == 64 for ln in lines[:8])
    src = tool.parents[1] / "src" / "arpg"
    total = sum(p.read_bytes().count(b"\n") for p in src.glob("*.py"))
    assert lines[8] == "src/arpg lines: %d" % total


def test_peak_sites_tool_reports_every_tape_node():
    # the tool that finds where a train step peaks, at a small batch: one line
    # per tape node with a backward, named as the graph names it, memory held
    # when backward() starts under the step peak, and the largest site a node
    tool = Path(__file__).resolve().parents[1] / "tools" / "peak_sites.py"
    cmd = [sys.executable, str(tool), "--batch", "2", "--threads", "1", "--top", "1"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    rows = [ln.split() for ln in lines[1:] if ln.split()[0].isdigit()]
    figures = dict(ln.rsplit(": ", 1) for ln in lines if ln.endswith(" MB"))

    cfg = ModelConfig()
    rng = np.random.default_rng(0)
    params = ArpgParams.init(cfg, rng, np.float32)
    perms = np.stack([rng.permutation(cfg.seq_len) + 1 for _ in range(2)])
    toks = rng.integers(0, cfg.vocab_size, (2, cfg.seq_len))
    logits, targets = forward_train_batch(params, toks, np.full(2, cfg.class_token(0)), perms)
    loss = nc.cross_entropy(nc.reshape(logits, (-1, cfg.vocab_size)), targets.reshape(-1))
    stack, seen, ops = [loss], set(), []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
            if t._backward is not None:
                ops.append(t._backward.__qualname__.split(".<locals>")[0])
    assert [int(r[0]) for r in rows] == list(range(len(ops)))
    assert sorted(r[1] for r in rows) == sorted(ops)

    def mb(text):
        return float(text.split()[0])
    assert mb(figures["held when backward() starts"]) <= mb(figures["step peak"])
    (site, largest), = ((k, v) for k, v in figures.items() if k.startswith("site #"))
    index, op = site.split()[1:3]
    assert rows[int(index[1:])][1] == op
    assert mb(largest) == max(float(r[-1]) for r in rows)
