"""Command-line surface: train, generate, edit, bench, demo, export.

One command is one process. Config is a flat JSON object with dotted keys
("model.hidden": 256) merged with key=value overrides from the command line.
Every command runs in one frame, which main alone keeps: check all input,
then write, then run. The command first reads its keys, loads and checks
every input and writes nothing; main then rejects unknown keys, creates the
output directory and copies the resolved config into it as config.json;
only then does the command's work run. Exit codes: 0 success, 2 bad usage,
config or input (an OSError, ValueError, TypeError, KeyError or IndexError
raised before the work starts), 1 any other failure, and any failure of the
run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import model as md
from . import numcore as nc
from .attention import causal_mask, cross_full_mask
from .checkpoint import (load_checkpoint, restore_rng, rng_state,
                         save_checkpoint)
from .decoding import (DecodeConfig, TokenGrid, _grid_shape, expand, expand_layout, generate,
                       inpaint, inpaint_layout)
from .ordering import DecodeSchedule, check_int, check_seed, schedule_counts
from .training import (OptimState, ToyDatasetSpec, TrainConfig, make_dataset,
                       masked_baseline_grad_demo, train_loop, train_step)


# ---------------------------------------------------------------- config

_MISSING = object()


def parse_override(token: str) -> tuple[str, object]:
    """"key=value" or "--key=value" -> (key, json-decoded or raw value)."""
    text = token[2:] if token.startswith("--") else token
    if "=" not in text:
        raise ValueError("override %r is not key=value" % token)
    key, raw = text.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Flat dotted-key dict from an optional JSON file plus overrides."""
    cfg: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ValueError("config file not found: %s" % path)
        loaded = json.loads(p.read_text())
        if not isinstance(loaded, dict):
            raise ValueError("config root must be a JSON object: %s" % path)
        cfg.update(loaded)
    for token in overrides:
        key, value = parse_override(token)
        cfg[key] = value
    return cfg


def build(cls, cfg: dict, prefix: str, used: set[str]):
    """Instantiate dataclass cls from cfg keys named "prefix.field"."""
    kwargs = {}
    for f in fields(cls):
        key = "%s.%s" % (prefix, f.name)
        if key in cfg:
            kwargs[f.name] = cfg[key]
            used.add(key)
    return cls(**kwargs)


def take(cfg: dict, key: str, used: set[str], default=_MISSING):
    if key in cfg:
        used.add(key)
        return cfg[key]
    if default is _MISSING:
        raise ValueError("missing required config key: %s" % key)
    return default


def take_int(cfg: dict, key: str, used: set[str], default=_MISSING) -> int:
    """take() for an integer key: ValueError for a bool or a non-integer."""
    return check_int(key, take(cfg, key, used, default))


def check_used(cfg: dict, used: set[str]) -> None:
    unknown = sorted(set(cfg) - used)
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(unknown))


# ---------------------------------------------------------------- images

# Token id -> RGB. Background, then one warm-to-light ramp per class palette,
# then spare grays; ids past the table wrap around.
PALETTE = np.array([
    [24, 24, 32],
    [170, 40, 40], [215, 85, 60], [250, 135, 100],
    [30, 140, 60], [75, 185, 90], [140, 225, 140],
    [40, 80, 180], [85, 130, 220], [135, 180, 250],
    [175, 150, 30], [215, 190, 60], [250, 225, 110],
    [90, 90, 90], [150, 150, 150], [210, 210, 210],
], dtype=np.uint8)


def render_rgb(tokens: np.ndarray, cell_px: int = 16) -> np.ndarray:
    """[h, w] token ids -> [h*cell_px, w*cell_px, 3] uint8."""
    ids = np.asarray(tokens, dtype=np.int64) % len(PALETTE)
    rgb = PALETTE[ids]
    return np.repeat(np.repeat(rgb, cell_px, axis=0), cell_px, axis=1)


def write_ppm(path, tokens: np.ndarray, cell_px: int = 16) -> None:
    """Binary P6 image, dependency-free."""
    rgb = render_rgb(tokens, cell_px)
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(rgb.tobytes())


def maybe_write_png(path, tokens: np.ndarray, cell_px: int = 16) -> bool:
    """PNG via Pillow when importable; returns whether it was written."""
    try:
        from PIL import Image
    except ImportError:
        return False
    Image.fromarray(render_rgb(tokens, cell_px)).save(path)
    return True


def save_tokens_txt(path, tokens: np.ndarray) -> None:
    np.savetxt(path, np.asarray(tokens, dtype=np.int64), fmt="%d")


def load_tokens_txt(path) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise ValueError("token grid file not found: %s" % path)
    return np.loadtxt(p, dtype=np.int64, ndmin=2)


def _write_sample(stem: Path, grid: TokenGrid, order: np.ndarray,
                  sidecar: dict, cell_px: int) -> None:
    save_tokens_txt("%s.tokens.txt" % stem, grid.tokens)
    write_ppm("%s.ppm" % stem, grid.tokens, cell_px)
    png = maybe_write_png("%s.png" % stem, grid.tokens, cell_px)
    # decode order is tracked as model positions (raster index + 1, slot 0
    # being the condition); sidecars report plain raster indices
    raster = (np.asarray(order).astype(int) - 1).tolist()
    sidecar = dict(sidecar, order=raster, png_written=png)
    Path("%s.json" % stem).write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- train

def cmd_train(cfg: dict, used: set[str]):
    out = Path(take(cfg, "out_dir", used))
    mc = build(md.ModelConfig, cfg, "model", used)
    spec = build(ToyDatasetSpec, cfg, "data", used)
    tc = build(TrainConfig, cfg, "train", used)
    data_n = take_int(cfg, "data.n", used, 512)
    data_seed = check_seed("data.seed", take(cfg, "data.seed", used, 0))
    snapshot_every = take_int(cfg, "train.snapshot_every", used, 0)
    log_every = take_int(cfg, "train.log_every", used, 50)
    resume = take(cfg, "train.resume", used, None)
    if data_n < 1:
        raise ValueError("data.n must be >= 1, got %d" % data_n)
    if spec.grid_h * spec.grid_w != mc.seq_len:
        raise ValueError("data grid %dx%d holds %d tokens, model.seq_len is %d"
                         % (spec.grid_h, spec.grid_w, spec.grid_h * spec.grid_w, mc.seq_len))
    if spec.vocab_size != mc.vocab_size or spec.num_classes != mc.num_classes:
        raise ValueError("data vocab/classes (%d, %d) do not match model (%d, %d)"
                         % (spec.vocab_size, spec.num_classes, mc.vocab_size, mc.num_classes))
    data_id = {"n": data_n, "seed": data_seed, "spec": asdict(spec)}

    if resume is not None:
        ck = load_checkpoint(resume)
        if ck.meta.get("model") != asdict(mc):
            raise ValueError("checkpoint model config does not match the "
                             "requested one: %s" % resume)
        extra = ck.meta.get("extra") or {}
        if extra.get("data") != data_id:
            raise ValueError("checkpoint was trained on a different dataset: %s" % resume)
        if ck.optim is None:
            raise ValueError("checkpoint holds no optimizer state, cannot "
                             "resume: %s" % resume)
        start_step = int(extra["loop_step"])
        if start_step > tc.steps:
            raise ValueError("checkpoint was saved at step %d, past "
                             "train.steps %d: %s" % (start_step, tc.steps, resume))
        rng = restore_rng(extra["rng_state"])
        params, optim = ck.params, ck.optim
        metrics_mode = "a"
    else:
        params = md.ArpgParams.init(mc, np.random.default_rng(tc.seed))
        optim = OptimState.init(params, tc.lr, (tc.beta1, tc.beta2),
                                tc.weight_decay)
        start_step = 0
        rng = np.random.default_rng(tc.seed + 1)
        metrics_mode = "w"

    def run():
        dataset = make_dataset(spec, data_n, np.random.default_rng(data_seed))
        t_start = time.perf_counter()
        with open(out / "metrics.jsonl", metrics_mode) as mf:
            def on_step(rec):
                mf.write(json.dumps(rec) + "\n")
                mf.flush()
                done = rec["step"] + 1
                if log_every and done % log_every == 0:
                    print("step %5d  loss %.4f  lr %.2e  %.0f ms"
                          % (rec["step"], rec["loss"], rec["lr"], rec["wall_ms"]))
                if snapshot_every and done % snapshot_every == 0 and done < tc.steps:
                    save_checkpoint(out / ("snapshot_%06d.ckpt" % done), params,
                                    optim, extra={"loop_step": done,
                                                  "rng_state": rng_state(rng),
                                                  "data": data_id})
            _, history = train_loop(params, dataset, tc, optim=optim, rng=rng,
                                    start_step=start_step, on_step=on_step)

        final = out / "model.ckpt"
        save_checkpoint(final, params, optim,
                        extra={"loop_step": tc.steps, "rng_state": rng_state(rng),
                               "data": data_id})
        last = history[-1]["loss"] if history else float("nan")
        print("trained steps [%d, %d) in %.1f s, final loss %.4f -> %s"
              % (start_step, tc.steps, time.perf_counter() - t_start, last, final))
    return out, run


# ---------------------------------------------------------------- decode commands

def _decode_inputs(cfg: dict, used: set[str], command: str):
    """Load and check what generate, inpaint and expand share; returns
    (params, dc, class_id, cell_px, the sidecar fields of every sample)."""
    ck_path = take(cfg, "checkpoint", used)
    dc = build(DecodeConfig, cfg, "decode", used)
    class_id = take_int(cfg, "%s.class_id" % command, used, 0)
    cell_px = take_int(cfg, "image.cell_px", used, 16)
    if cell_px < 1:
        raise ValueError("image.cell_px must be >= 1, got %d" % cell_px)
    params = load_checkpoint(ck_path).params
    params.config.class_token(class_id)  # raises for an unknown class
    sidecar = {"command": command, "seed": dc.seed, "class_id": class_id,
               "checkpoint": str(ck_path), "decode": asdict(dc)}
    return params, dc, class_id, cell_px, sidecar


def cmd_generate(cfg: dict, used: set[str]):
    out = Path(take(cfg, "out_dir", used))
    n = take_int(cfg, "generate.n", used, 1)
    if n < 1:
        raise ValueError("generate.n must be >= 1, got %d" % n)
    params, dc, class_id, cell_px, sidecar = _decode_inputs(cfg, used, "generate")
    _grid_shape(params.config, dc)
    schedule_counts(DecodeSchedule(dc.schedule, dc.steps, params.config.seq_len))

    def run():
        for i in range(n):
            dci = replace(dc, seed=dc.seed + i)
            sink: list = []
            grid = generate(params, class_id, dci, state_sink=sink)
            _write_sample(out / ("sample_%03d" % i), grid, sink[0].permutation,
                          dict(sidecar, seed=dci.seed, decode=asdict(dci)), cell_px)
        print("wrote %d sample(s) to %s" % (n, out))
    return out, run


def cmd_inpaint(cfg: dict, used: set[str]):
    out = Path(take(cfg, "out_dir", used))
    input_path = take(cfg, "inpaint.input", used)
    mask_path = take(cfg, "inpaint.mask", used)
    params, dc, class_id, cell_px, sidecar = _decode_inputs(cfg, used, "inpaint")
    partial = TokenGrid(load_tokens_txt(input_path), class_id).validate(
        params.config.vocab_size)
    known = load_tokens_txt(mask_path).astype(bool)
    inpaint_layout(partial.tokens.shape, known, *_grid_shape(params.config, dc))

    def run():
        sink: list = []
        grid = inpaint(params, partial, known, class_id, dc, state_sink=sink)
        order = sink[0].permutation
        _write_sample(out / "inpaint", grid, order,
                      dict(sidecar, input=str(input_path), mask=str(mask_path)),
                      cell_px)
        print("inpainted %d position(s) -> %s" % (len(order), out / "inpaint.ppm"))
    return out, run


def cmd_expand(cfg: dict, used: set[str]):
    out = Path(take(cfg, "out_dir", used))
    input_path = take(cfg, "expand.input", used)
    new_h = take_int(cfg, "expand.new_h", used)
    new_w = take_int(cfg, "expand.new_w", used)
    mode = take(cfg, "expand.mode", used, "outpaint")
    params, dc, class_id, cell_px, sidecar = _decode_inputs(cfg, used, "expand")
    base = TokenGrid(load_tokens_txt(input_path), class_id).validate(
        params.config.vocab_size)
    expand_layout(base.tokens.shape, new_h, new_w, mode, dc)

    def run():
        sink: list = []
        grid = expand(params, base, new_h, new_w, mode, dc, state_sink=sink)
        _write_sample(out / "expand", grid, sink[0].permutation,
                      dict(sidecar, mode=mode, input=str(input_path),
                           new_h=new_h, new_w=new_w), cell_px)
        print("expanded to %dx%d (%s) -> %s"
              % (new_h, new_w, mode, out / "expand.ppm"))
    return out, run


# ---------------------------------------------------------------- bench

def run_bench(params: md.ArpgParams, steps_list, patterns, batch: int = 16,
              repeats: int = 3, base_dc: DecodeConfig | None = None,
              seed: int = 0) -> dict:
    """Sweep step counts x attention patterns over full-grid decodes.

    Each (steps, pattern) cell decodes `batch` independent grids per repeat.
    One untimed warm-up round visits every cell first; each timed round then
    runs one repeat of every cell in turn, so a change of clock speed lands
    on all cells alike. Timings cover only the decode calls, not checkpoint
    load or process startup. Returns {"rows": [...],
    "monotonicity_violations": [...]} where a violation is a pattern whose
    mean wall time went down when the step count went up.
    """
    cfg = params.config
    total = cfg.seq_len
    if base_dc is None:
        base_dc = DecodeConfig()
    cells = [(pattern, steps) for pattern in patterns for steps in steps_list]
    wall_ms = [[] for _ in cells]
    sinks = [[] for _ in cells]
    for rep in range(repeats + 1):  # round 0 is warm-up
        for (pattern, steps), times, sink in zip(cells, wall_ms, sinks):
            dc = replace(base_dc, steps=steps, attention_pattern=pattern)
            t0 = time.perf_counter()
            for b in range(batch):
                generate(params, b % cfg.num_classes,
                         replace(dc, seed=seed + 1000 * rep + b),
                         state_sink=sink if rep == b == 0 else None)
            if rep > 0:
                times.append((time.perf_counter() - t0) * 1e3)
    rows = []
    for (pattern, steps), times, sink in zip(cells, wall_ms, sinks):
        arr = np.asarray(times)
        # the caches one decode of this cell opened, as allocated
        cache_scalars = sum(c.scalar_count() for c in sink[0].caches)
        rows.append({
            "steps": steps, "pattern": pattern,
            "wall_ms_mean": float(arr.mean()),
            "wall_ms_p50": float(np.percentile(arr, 50)),
            "wall_ms_p95": float(np.percentile(arr, 95)),
            "tokens_per_s": float(batch * total / (arr.mean() / 1e3)),
            "cache_scalars": cache_scalars,
            "resident_bytes_est": params.dtype.itemsize * (md.param_count(cfg)
                                                           + cache_scalars),
        })
    violations = []
    for pattern in patterns:
        by_steps = sorted((r for r in rows if r["pattern"] == pattern),
                          key=lambda r: r["steps"])
        for lo, hi in zip(by_steps, by_steps[1:]):
            if hi["wall_ms_mean"] < lo["wall_ms_mean"]:
                violations.append({"pattern": pattern,
                                   "steps": [lo["steps"], hi["steps"]],
                                   "wall_ms_mean": [lo["wall_ms_mean"],
                                                    hi["wall_ms_mean"]]})
    return {"rows": rows, "monotonicity_violations": violations,
            "batch": batch, "repeats": repeats, "seq_len": total}


def format_bench_table(report: dict) -> str:
    cols = ["steps", "pattern", "wall_ms_mean", "wall_ms_p50", "wall_ms_p95",
            "tokens_per_s", "cache_scalars", "resident_bytes_est"]
    lines = [" ".join("%14s" % c for c in cols)]
    for r in report["rows"]:
        cells = []
        for c in cols:
            v = r[c]
            cells.append("%14.1f" % v if isinstance(v, float) else "%14s" % v)
        lines.append(" ".join(cells))
    for v in report["monotonicity_violations"]:
        lines.append("warning: %s wall time fell from %.1f to %.1f ms going "
                     "%d -> %d steps" % (v["pattern"], v["wall_ms_mean"][0],
                                         v["wall_ms_mean"][1], v["steps"][0],
                                         v["steps"][1]))
    return "\n".join(lines)


def _default_steps(total: int) -> list[int]:
    steps = [s for s in (1, 2, 4, 8, 16, 32, 64, 128, 256) if s < total]
    return steps + [total]


def cmd_bench(cfg: dict, used: set[str]):
    out = Path(take(cfg, "out_dir", used))
    ck_path = take(cfg, "checkpoint", used, None)
    dc = build(DecodeConfig, cfg, "decode", used)
    if ck_path is not None:
        params = load_checkpoint(ck_path).params
    else:
        mc = build(md.ModelConfig, cfg, "model", used)
        params = md.ArpgParams.init(mc, np.random.default_rng(0))
    steps_list = [check_int("bench.steps", steps) for steps in
                  take(cfg, "bench.steps", used, _default_steps(params.config.seq_len))]
    patterns = take(cfg, "bench.patterns", used, ["causal", "block_causal"])
    batch = take_int(cfg, "bench.batch", used, 16)
    repeats = take_int(cfg, "bench.repeats", used, 3)
    seed = check_seed("bench.seed", take(cfg, "bench.seed", used, 0))
    if batch < 1 or repeats < 1:
        raise ValueError("bench.batch and bench.repeats must be >= 1")
    if not steps_list or not patterns:
        raise ValueError("bench.steps and bench.patterns must each name at least one cell")
    _grid_shape(params.config, dc)
    for steps in steps_list:  # every cell's decode settings and schedule
        for pattern in patterns:
            cell = replace(dc, steps=steps, attention_pattern=pattern)
            schedule_counts(DecodeSchedule(cell.schedule, cell.steps, params.config.seq_len))

    def run():
        report = run_bench(params, steps_list, patterns, batch, repeats, dc, seed)
        (out / "bench.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        table = format_bench_table(report)
        (out / "bench.txt").write_text(table + "\n")
        print(table)
    return out, run


# ---------------------------------------------------------------- grad demo

def _fmt_norm(v: float) -> str:
    return "0" if v == 0.0 else "%.6e" % v


def cmd_grad_demo(cfg: dict, used: set[str]):
    out_path = take(cfg, "out_dir", used, None)
    out = None if out_path is None else Path(out_path)
    seed = check_seed("demo.seed", take(cfg, "demo.seed", used, 0))
    rows = take_int(cfg, "demo.rows", used, 8)
    if rows < 1:
        raise ValueError("demo.rows must be >= 1, got %d" % rows)

    def run():
        report = masked_baseline_grad_demo(seed, rows=rows)
        print("one-layer masked baseline, seed %d: per-row query-grad norms" % seed)
        for i, (m, dq) in enumerate(zip(report["masked"], report["dq_norms"])):
            print("  row %2d  %s  |dq| = %s"
                  % (i, "masked  " if m else "unmasked", _fmt_norm(dq)))

        mc = md.ModelConfig(vocab_size=16, num_classes=4, hidden=32, heads=4,
                            pass1_layers=2, pass2_layers=2, seq_len=16)
        params = md.ArpgParams.init(mc, np.random.default_rng(seed),
                                    dtype=np.float64)
        spec = ToyDatasetSpec(grid_h=4, grid_w=4, vocab_size=16, num_classes=4)
        batch = make_dataset(spec, 8, np.random.default_rng(seed))
        optim = OptimState.init(params, 1e-3)
        loss = train_step(params, optim, batch, np.random.default_rng(seed + 1))
        print("two-pass model, one train step (loss %.4f): query-projection "
              "grad norms" % loss)
        wq_norms = {}
        for layer in params.pass2:
            wq_norms[layer.wq.name] = float(np.linalg.norm(layer.wq.grad))
            print("  %s  |grad| = %s" % (layer.wq.name,
                                         _fmt_norm(wq_norms[layer.wq.name])))
        assert all(v > 0.0 for v in wq_norms.values()), \
            "a query projection received zero gradient"

        if out is not None:
            payload = {"seed": seed, "baseline": {k: np.asarray(v).tolist()
                                                  for k, v in report.items()},
                       "model_wq_grad_norms": wq_norms}
            (out / "grad_demo.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out, run


# ---------------------------------------------------------------- attention export

def cmd_attn_export(cfg: dict, used: set[str]):
    out = Path(take(cfg, "out_dir", used))
    ck_path = take(cfg, "checkpoint", used)
    input_path = take(cfg, "attn.input", used, None)
    class_id = take_int(cfg, "attn.class_id", used, 0)
    seed = check_seed("attn.seed", take(cfg, "attn.seed", used, 0))
    ck = load_checkpoint(ck_path)
    params = ck.params
    mc = params.config
    total = mc.seq_len
    mc.class_token(class_id)  # raises for an unknown class
    if input_path is None:
        toks = np.random.default_rng(seed).integers(0, mc.vocab_size, total)
    else:
        grid = load_tokens_txt(input_path)
        # the grid the checkpoint was trained on, else the square one
        spec = ck.meta["extra"].get("data", {}).get("spec")
        model_grid = ((spec["grid_h"], spec["grid_w"]) if spec
                      else _grid_shape(mc, DecodeConfig()))
        if grid.shape != model_grid:
            raise ValueError("attn.input grid has shape %s, model grid is %s"
                             % (grid.shape, model_grid))
        toks = TokenGrid(grid, class_id).validate(mc.vocab_size, total).flat

    def run():
        # Raster teacher forcing: content row i sees [cond, x_1..x_i], query
        # row t asks for position t over the full content length.
        ids = np.concatenate([[mc.class_token(class_id)],
                              toks[:-1]]).astype(np.int64)
        positions = np.arange(total, dtype=np.int64)
        targets = np.arange(1, total + 1, dtype=np.int64)
        pass1_probs, pass2_probs = [], []
        with nc.no_grad():
            h = md.pass1_hidden(params, ids[None], positions[None],
                                causal_mask(total), probs_sink=pass1_probs)
            kv = md.project_kv(params, h, positions[None])
            md.pass2_logits(params, kv, targets[None],
                            cross_full_mask(total, total), probs_sink=pass2_probs)

        written = []
        for stack, probs in (("pass1", pass1_probs), ("pass2", pass2_probs)):
            if not probs:  # a model without content layers has no pass-1 scores
                continue
            for head in range(mc.heads):  # final layer of the stack
                name = "%s_head%d.csv" % (stack, head)
                np.savetxt(out / name, probs[-1][0, head], delimiter=",", fmt="%.8e")
                written.append(name)
        meta = {"checkpoint": str(ck_path), "class_id": class_id, "seed": seed,
                "input": None if input_path is None else str(input_path),
                "t_in": int(total), "queries": int(total), "heads": mc.heads,
                "files": written}
        (out / "attn_meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n")
        print("wrote %d score matrices to %s" % (len(written), out))
    return out, run


# ---------------------------------------------------------------- entry

# Each command reads its keys from cfg, adding them to used, loads and checks
# its inputs, and returns (output directory or None, run); run does the work.
COMMANDS = {
    "train": cmd_train,
    "generate": cmd_generate,
    "inpaint": cmd_inpaint,
    "expand": cmd_expand,
    "bench": cmd_bench,
    "grad-demo": cmd_grad_demo,
    "attn-export": cmd_attn_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="arpg",
        description="Random-order parallel decoder: train on shape grids, "
                    "generate, edit, benchmark.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None,
                        help="flat JSON config with dotted keys")
    args, overrides = parser.parse_known_args(argv)
    running = False
    try:  # check all input, then write, then run
        cfg = load_config(args.config, overrides)
        used: set[str] = set()
        out, run = COMMANDS[args.command](cfg, used)
        check_used(cfg, used)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            (out / "config.json").write_text(
                json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        running = True
        run()
        return 0
    except Exception as e:
        if not running and isinstance(e, (OSError, ValueError, TypeError, KeyError,
                                          IndexError)):  # the input's failure
            print("config error: %s" % e, file=sys.stderr)
            return 2
        # any other failure, and every failure of the run, is the run's
        traceback.print_exc()
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
