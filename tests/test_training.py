"""Dataset + verifier, optimizer arithmetic, the step loop, and the grad demo."""

from dataclasses import replace

import numpy as np
import pytest

from arpg import decoding as dec
from arpg import model as md
from arpg import training as tr


def tiny_setup(seed=0, dtype=np.float32, **kw):
    base = dict(vocab_size=16, num_classes=4, hidden=32, heads=4,
                pass1_layers=2, pass2_layers=2, seq_len=16)
    base.update(kw)
    cfg = md.ModelConfig(**base)
    params = md.ArpgParams.init(cfg, np.random.default_rng(seed), dtype)
    spec = tr.ToyDatasetSpec(grid_h=4, grid_w=4)
    return params, spec


# ---------------------------------------------------------------- dataset

def test_dataset_deterministic_and_balanced():
    spec = tr.ToyDatasetSpec()
    a = tr.make_dataset(spec, 1000, np.random.default_rng(7))
    b = tr.make_dataset(spec, 1000, np.random.default_rng(7))
    assert all(np.array_equal(x.tokens, y.tokens) for x, y in zip(a, b))
    hist = np.bincount([g.class_id for g in a], minlength=4)
    assert list(hist) == [250, 250, 250, 250]


def test_clean_samples_verify_perfectly():
    spec = tr.ToyDatasetSpec()
    for g in tr.make_dataset(spec, 200, np.random.default_rng(1)):
        assert tr.verify_grid(g.tokens, spec) == g.class_id
        assert tr.verify_grid(g.tokens, spec, strict=True) == g.class_id


def test_noisy_samples_mostly_verify():
    spec = tr.ToyDatasetSpec(noise_rate=0.05)
    ds = tr.make_dataset(spec, 200, np.random.default_rng(2))
    hits = sum(tr.verify_grid(g.tokens, spec) == g.class_id for g in ds)
    assert hits / len(ds) > 0.9


def test_verifier_chance_level_on_random_grids():
    spec = tr.ToyDatasetSpec()
    rng = np.random.default_rng(3)
    assigned = [tr.verify_grid(rng.integers(0, 16, (8, 8)), spec)
                for _ in range(400)]
    freq = np.bincount(assigned, minlength=4) / 400
    assert (np.abs(freq - 0.25) < 0.1).all()
    strict = [tr.verify_grid(rng.integers(0, 16, (8, 8)), spec, strict=True)
              for _ in range(100)]
    assert np.mean(np.array(strict) == -1) > 0.9


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        tr.ToyDatasetSpec(grid_h=3)
    with pytest.raises(ValueError):
        tr.ToyDatasetSpec(vocab_size=12)
    with pytest.raises(ValueError):
        tr.ToyDatasetSpec(noise_rate=1.0)
    with pytest.raises(ValueError):
        tr.make_dataset(tr.ToyDatasetSpec(), 0, np.random.default_rng(0))


def test_palettes_disjoint():
    spec = tr.ToyDatasetSpec()
    seen = set()
    for c in range(4):
        pal = set(spec.palette(c).tolist())
        assert not pal & seen
        assert tr.BACKGROUND not in pal
        seen |= pal


# ---------------------------------------------------------------- optimizer

def make_flat_params():
    cfg = md.ModelConfig(vocab_size=16, num_classes=4, hidden=32, heads=4,
                         pass1_layers=1, pass2_layers=1, seq_len=16)
    return md.ArpgParams.init(cfg, np.random.default_rng(0), np.float64)


def test_adamw_zero_grad_zero_decay_no_motion():
    params = make_flat_params()
    optim = tr.OptimState.init(params, lr=0.1, weight_decay=0.0)
    before = [p.data.copy() for p in params.parameters()]
    tr.adamw_update(optim, params)
    for p, b in zip(params.parameters(), before):
        assert np.array_equal(p.data, b)


def test_adamw_unit_grad_closed_form():
    params = make_flat_params()
    optim = tr.OptimState.init(params, lr=0.1, weight_decay=0.0)
    before = [p.data.copy() for p in params.parameters()]
    for p in params.parameters():
        p.grad[...] = 1.0
    tr.adamw_update(optim, params)
    for p, b in zip(params.parameters(), before):
        assert np.abs((p.data - b) + 0.1).max() < 1e-6


def test_adamw_decoupled_decay_shrinks_grad_free_weight():
    params = make_flat_params()
    optim = tr.OptimState.init(params, lr=0.1, weight_decay=0.05)
    w = params.pass1[0].wqkv
    gain = params.kv_norm
    before_w = w.data.copy()
    before_gain = gain.data.copy()
    tr.adamw_update(optim, params)
    assert np.allclose(w.data, before_w * (1 - 0.1 * 0.05), atol=1e-12)
    assert np.array_equal(gain.data, before_gain)  # 1-d excluded from decay


def test_lr_schedule_shape():
    total, base = 100, 2.0
    assert tr.lr_at(0, total, base) == pytest.approx(base / 10)
    assert tr.lr_at(9, total, base) == pytest.approx(base)
    mid = tr.lr_at(55, total, base)
    assert 0 < mid < base
    assert tr.lr_at(99, total, base, min_lr=0.1) < mid
    assert tr.lr_at(99, total, base, min_lr=0.1) > 0.1


# ---------------------------------------------------------------- train step

def test_initial_loss_near_uniform():
    params, spec = tiny_setup(seed=4)
    ds = tr.make_dataset(spec, 64, np.random.default_rng(5))
    optim = tr.OptimState.init(params, lr=1e-3)
    loss = tr.train_step(params, optim, ds[:16], np.random.default_rng(6))
    assert abs(loss - np.log(16)) < 0.1


def test_training_reduces_loss_and_is_deterministic():
    losses = []
    for _ in range(2):
        params, spec = tiny_setup(seed=7)
        ds = tr.make_dataset(spec, 128, np.random.default_rng(8))
        cfg = tr.TrainConfig(steps=30, batch_size=16, lr=3e-3, seed=9)
        _, history = tr.train_loop(params, ds, cfg)
        losses.append([h["loss"] for h in history])
    assert losses[0] == losses[1]
    assert losses[0][-1] < losses[0][0] - 0.5


def test_train_loop_resume_matches_uninterrupted():
    def run(interrupt):
        params, spec = tiny_setup(seed=10)
        ds = tr.make_dataset(spec, 64, np.random.default_rng(11))
        cfg = tr.TrainConfig(steps=8, batch_size=8, seed=12)
        rng = np.random.default_rng(cfg.seed)
        if not interrupt:
            _, h = tr.train_loop(params, ds, cfg, rng=rng)
            return h
        optim, h1 = tr.train_loop(params, ds, cfg, rng=rng, stop_step=4)
        _, h2 = tr.train_loop(params, ds, cfg, optim=optim, rng=rng,
                              start_step=4)
        return h1 + h2
    keys = ("step", "loss", "grad_norm", "clipped", "lr")
    straight = [[h[k] for k in keys] for h in run(False)]
    resumed = [[h[k] for k in keys] for h in run(True)]
    assert straight == resumed


def test_train_loop_reports_grad_norm_and_clipping():
    # a clip threshold inside the run's range of norms: some steps clip, some not
    params, spec = tiny_setup(seed=10)
    ds = tr.make_dataset(spec, 64, np.random.default_rng(11))
    cfg = tr.TrainConfig(steps=8, batch_size=8, seed=12, grad_clip=2.5)
    _, history = tr.train_loop(params, ds, cfg)
    assert all(r["clipped"] == (r["grad_norm"] > cfg.grad_clip) for r in history)
    assert {r["clipped"] for r in history} == {True, False}
    # a clipped step leaves gradients of exactly the clip norm for AdamW
    params, spec = tiny_setup(seed=10)
    _, history = tr.train_loop(params, ds, replace(cfg, steps=1, grad_clip=1.0))
    norm = np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params.parameters()))
    assert history[0]["clipped"] and abs(norm - 1.0) < 1e-5


def test_every_pass2_query_projection_gets_grad():
    params, spec = tiny_setup(seed=13, dtype=np.float64)
    ds = tr.make_dataset(spec, 32, np.random.default_rng(14))
    optim = tr.OptimState.init(params, lr=1e-4)
    tr.train_step(params, optim, ds[:8], np.random.default_rng(15))
    for layer in params.pass2:
        assert np.abs(layer.wq.grad).sum() > 0


def test_train_step_rejects_empty_and_nan():
    params, spec = tiny_setup()
    optim = tr.OptimState.init(params, lr=1e-3)
    with pytest.raises(ValueError):
        tr.train_step(params, optim, (np.zeros((0, 16)), np.zeros(0)),
                      np.random.default_rng(0))
    params.token_embedding.data[0, 0] = np.nan
    ds = tr.make_dataset(tr.ToyDatasetSpec(grid_h=4, grid_w=4), 8,
                         np.random.default_rng(1))
    with pytest.raises(RuntimeError):
        tr.train_step(params, optim, ds, np.random.default_rng(2))


@pytest.mark.parametrize("clip", [None, 1.0])
def test_train_step_stops_on_non_finite_grad(monkeypatch, clip):
    # one NaN planted in a gradient after backward: the step raises before
    # AdamW, naming the step and the parameter, and leaves weights and moments
    params, spec = tiny_setup()
    optim = tr.OptimState.init(params, lr=1e-3)
    ds = tr.make_dataset(spec, 8, np.random.default_rng(1))
    tr.train_step(params, optim, ds, np.random.default_rng(2), grad_clip=clip)
    backward = tr.nc.Tensor.backward

    def planting(self):
        backward(self)
        params.head.grad[0, 0] = np.nan
    monkeypatch.setattr(tr.nc.Tensor, "backward", planting)
    before = [(p.data.copy(), optim.m[p.name].copy(), optim.v[p.name].copy())
              for p in params.parameters()]
    with pytest.raises(RuntimeError, match="head.proj.*step 1"):
        tr.train_step(params, optim, ds, np.random.default_rng(3), grad_clip=clip)
    assert optim.step == 1
    for p, kept in zip(params.parameters(), before):
        for now, then in zip((p.data, optim.m[p.name], optim.v[p.name]), kept):
            assert np.array_equal(now, then)


@pytest.mark.parametrize("setting", [{"grad_clip": -1.0}, {"grad_clip": 0.0},
                                     {"grad_clip": float("nan")}, {"grad_clip": float("inf")},
                                     {"lr": 0.0}, {"lr": -3e-3}, {"lr": float("nan")},
                                     {"lr": float("inf")}, {"beta1": 1.0}, {"beta2": 1.5},
                                     {"min_lr": float("nan")}, {"warmup_frac": float("nan")},
                                     {"weight_decay": -1e9}, {"class_dropout": float("nan")}])
def test_train_config_rejects_a_bad_step_size(setting):
    # a negative clip would scale the gradients by a negative factor: ascent;
    # beta1 = 1 divides by a zero bias correction, a NaN min_lr or warmup_frac
    # poisons the schedule, and the rest pass silently
    with pytest.raises(ValueError, match=next(iter(setting))):
        tr.TrainConfig(**setting)


@pytest.mark.parametrize("setting", [{"steps": 2.5}, {"steps": 8.0}, {"batch_size": 4.5},
                                     {"batch_size": "8"}, {"seed": 0.5}, {"steps": True},
                                     {"seed": -1}])
def test_train_config_requires_integer_counts(setting):
    # steps=2.5 would pass the range check and fail only inside the loop, and
    # numpy takes no negative seed
    with pytest.raises(ValueError, match="%s must be an integer" % next(iter(setting))):
        tr.TrainConfig(**setting)


def test_train_loop_rejects_grid_mismatch():
    params, _ = tiny_setup()
    ds = tr.make_dataset(tr.ToyDatasetSpec(), 8, np.random.default_rng(0))
    with pytest.raises(ValueError):
        tr.train_loop(params, ds, tr.TrainConfig(steps=1))


# ---------------------------------------------------------------- grad demo

def test_masked_baseline_mixed_rows():
    report = tr.masked_baseline_grad_demo(0)
    masked = np.array(report["masked"])
    dq = np.array(report["dq_norms"])
    dk = np.array(report["dk_norms"])
    dv = np.array(report["dv_norms"])
    assert (dq[~masked] == 0.0).all()
    assert (dq[masked] > 0).all()
    assert (dk[~masked] > 0).all()
    assert (dv[~masked] > 0).all()


def test_masked_baseline_explicit_extremes():
    # all rows masked: the zero-dq guarantee does not apply (no assertion
    # can fire), and the demo still returns a full report
    all_masked = tr.masked_baseline_grad_demo(1, masked=np.ones(8, bool))
    assert all(all_masked["masked"])
    assert np.isfinite(all_masked["dq_norms"]).all()
    none_masked = tr.masked_baseline_grad_demo(2, masked=np.zeros(8, bool))
    assert np.array(none_masked["dq_norms"]).max() == 0.0
    assert np.array(none_masked["dk_norms"]).max() == 0.0


def test_masked_baseline_rejects_an_empty_batch():
    for rows in (0, -3):
        with pytest.raises(ValueError, match="rows must be >= 1"):
            tr.masked_baseline_grad_demo(0, rows=rows)
    assert len(tr.masked_baseline_grad_demo(0, rows=1)["masked"]) == 1


def test_masked_baseline_rejects_a_mask_of_another_length():
    for masked in (np.array([True]), np.ones(9, bool), np.ones((2, 4), bool)):
        with pytest.raises(ValueError, match="masked must hold 8 flags"):
            tr.masked_baseline_grad_demo(0, rows=8, masked=masked)


def test_masked_baseline_many_seeds():
    for seed in range(10):
        report = tr.masked_baseline_grad_demo(seed)
        masked = np.array(report["masked"])
        dq = np.array(report["dq_norms"])
        assert (dq[~masked] == 0.0).all()
        assert (dq[masked] > 0).all()


# ---------------------------------------------------------------- evaluate

def test_evaluate_untrained_is_chance_level():
    params, spec = tiny_setup(seed=16)
    ds = tr.make_dataset(spec, 32, np.random.default_rng(17))
    dc = dec.DecodeConfig(steps=4, seed=0)
    out = tr.evaluate(params, ds, dc, spec=spec, n_generate=40)
    assert out["token_accuracy"] < 0.3
    assert abs(out["validity"] - 0.25) < 0.25
    assert out["strict_validity"] <= out["validity"]


def test_evaluate_improves_after_training():
    params, spec = tiny_setup(seed=18)
    ds = tr.make_dataset(spec, 256, np.random.default_rng(19))
    cfg = tr.TrainConfig(steps=120, batch_size=32, lr=4e-3, seed=20)
    tr.train_loop(params, ds, cfg)
    dc = dec.DecodeConfig(steps=4, temperature=0.8, seed=1)
    out = tr.evaluate(params, ds, dc, spec=spec, n_eval=64, n_generate=24)
    assert out["token_accuracy"] > 0.5
    assert out["validity"] > 0.4
