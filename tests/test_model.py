"""Config/parameter accounting, the two forward routes, and their cross-checks."""

from dataclasses import replace

import numpy as np
import pytest

from arpg import attention as at
from arpg import model as md
from arpg import numcore as nc
from arpg.decoding import KvCache
from conftest import content_kv


def tiny_config(**kw):
    base = dict(vocab_size=16, num_classes=4, hidden=32, heads=4,
                pass1_layers=2, pass2_layers=2, seq_len=16)
    base.update(kw)
    return md.ModelConfig(**base)


def make_params(seed=0, dtype=np.float64, **kw):
    cfg = tiny_config(**kw)
    return md.ArpgParams.init(cfg, np.random.default_rng(seed), dtype)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        md.ModelConfig(hidden=130, heads=4)
    with pytest.raises(ValueError):
        md.ModelConfig(pass2_layers=0)
    with pytest.raises(ValueError):
        md.ModelConfig(dropout=1.0)
    for bad in (dict(heads=0), dict(heads=-4), dict(hidden=0), dict(hidden=-128)):
        with pytest.raises(ValueError, match="need hidden >= 1 and heads >= 1"):
            md.ModelConfig(**bad)
    for base in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rope_base must be finite and > 0"):
            md.ModelConfig(rope_base=base)


def test_token_id_layout():
    cfg = tiny_config()
    assert cfg.class_token(0) == 16
    assert cfg.class_token(3) == 19
    assert cfg.null_class_token == 20
    assert cfg.mask_token == 21
    assert cfg.embed_rows == 22
    with pytest.raises(ValueError):
        cfg.class_token(4)


def test_ffn_hidden_rounding():
    assert md.ModelConfig(hidden=128, heads=4).ffn_hidden == 344
    assert md.ModelConfig(hidden=1024, heads=16, vocab_size=16384).ffn_hidden == 2728


# ---------------------------------------------------------------- parameters

def test_param_names_unique_and_count_matches_closed_form():
    for shared in (True, False):
        params = make_params(shared_kv=shared)
        names = [p.name for p in params.parameters()]
        assert len(names) == len(set(names))
        actual = sum(p.data.size for p in params.parameters())
        assert actual == md.param_count(params.config)


def test_shared_kv_owns_no_private_projections():
    shared = make_params(shared_kv=True)
    assert [p.name for p in shared.kv_proj] == ["kv.proj"]
    unshared = make_params(shared_kv=False)
    assert [p.name for p in unshared.kv_proj] == ["pass2.layer0.wkv", "pass2.layer1.wkv"]


def test_param_count_shared_vs_unshared_delta():
    cfg = md.ModelConfig()  # desk scale
    d = cfg.hidden
    unshared = replace(cfg, shared_kv=False)
    delta = md.param_count(unshared) - md.param_count(cfg)
    assert delta == cfg.pass2_layers * 2 * d * d - 2 * d * d
    assert md.param_count(cfg) < md.param_count(unshared)


def test_param_count_superlinear_in_width():
    small = md.ModelConfig(hidden=128, heads=4)
    big = md.ModelConfig(hidden=256, heads=4)
    assert md.param_count(big) > 3 * md.param_count(small)


def test_param_count_large_config_near_320m():
    cfg = md.ModelConfig(vocab_size=16384, num_classes=1000, hidden=1024, heads=16,
                         pass1_layers=12, pass2_layers=12, seq_len=256)
    n = md.param_count(cfg)
    assert abs(n - 320e6) / 320e6 < 0.05


def test_init_statistics():
    params = make_params(seed=3)
    w = params.pass1[0].wqkv.data
    assert abs(w.std() - 0.02) < 0.005
    assert np.abs(w).max() <= 0.04 + 1e-12
    assert np.array_equal(params.kv_norm.data, np.ones(32))


# ---------------------------------------------------------------- inference route

def test_decode_reads_live_weights():
    # a weight edited in place after a decode is what the next decode reads
    params = make_params(seed=9)
    cfg = params.config
    ids, pos = [cfg.class_token(2), 3, 7], [0, 5, 9]
    kv = content_kv(params, ids, pos)
    md.forward_pass2(params, np.array([2, 4]), kv)
    params.pass1[0].wqkv.data[:, :4] += 0.5
    params.pass2[1].w13.data *= 1.5
    fresh = make_params(seed=9)
    for p, edited in zip(fresh.parameters(), params.parameters()):
        p.data = edited.data.copy()
    kv_live, kv_fresh = content_kv(params, ids, pos), content_kv(fresh, ids, pos)
    assert not np.array_equal(kv_live[0][0], kv[0][0])
    for (k, v), (kf, vf) in zip(kv_live, kv_fresh):
        assert np.array_equal(k, kf) and np.array_equal(v, vf)
    assert np.array_equal(md.forward_pass2(params, np.array([2, 4]), kv_live),
                          md.forward_pass2(fresh, np.array([2, 4]), kv_fresh))


def test_pass1_condition_only():
    params = make_params()
    kv = content_kv(params, [params.config.class_token(1)], [0])
    assert len(kv) == 1
    k, v = kv[0]
    assert k.shape == (1, 4, 8) and v.shape == (1, 4, 8)
    assert np.isfinite(k).all() and np.isfinite(v).all()


def test_pass1_contract_errors():
    params = make_params()
    cache = KvCache(params.config, 17, params.dtype)
    with pytest.raises(ValueError):
        md.forward_pass1(params, [1, 2], [0], cache)
    with pytest.raises(ValueError):
        md.forward_pass1(params, [1], [3], cache)  # first fed token must sit at position 0
    with pytest.raises(IndexError):
        md.forward_pass1(params, [99], [0], cache)


def test_pass1_permutation_equivariance_bidirectional_only():
    params = make_params(seed=5)
    rng = np.random.default_rng(6)
    toks = rng.integers(0, 16, 8)
    pos = np.arange(1, 9)
    ids = np.concatenate([[params.config.class_token(0)], toks])
    full_pos = np.concatenate([[0], pos])
    sigma = rng.permutation(8)
    ids_s = np.concatenate([[params.config.class_token(0)], toks[sigma]])
    pos_s = np.concatenate([[0], pos[sigma]])

    k, v = content_kv(params, ids, full_pos, pattern="block_causal")[0]
    k_s, v_s = content_kv(params, ids_s, pos_s, pattern="block_causal")[0]
    assert np.allclose(k_s[1:], k[1:][sigma], atol=1e-12)
    assert np.allclose(v_s[1:], v[1:][sigma], atol=1e-12)

    k_c = content_kv(params, ids, full_pos, pattern="causal")[0]
    k_cs = content_kv(params, ids_s, pos_s, pattern="causal")[0]
    assert not np.allclose(k_cs[0][1:], k_c[0][1:][sigma], atol=1e-6)


def test_pass2_identical_positions_identical_logits():
    params = make_params(seed=7)
    kv = content_kv(params, [params.config.class_token(2), 3, 9], [0, 4, 11])
    logits = md.forward_pass2(params, [7, 7], kv)
    assert np.array_equal(logits[0], logits[1])


def test_pass2_joint_equals_separate_bitwise():
    params = make_params(seed=8)
    rng = np.random.default_rng(9)
    toks = rng.integers(0, 16, 6)
    kv = content_kv(params, np.concatenate([[params.config.class_token(1)], toks]),
                          np.concatenate([[0], np.arange(1, 7)]))
    targets = np.array([9, 12, 7, 15])
    joint = md.forward_pass2(params, targets, kv)
    for i, p in enumerate(targets):
        solo = md.forward_pass2(params, [p], kv)
        assert np.array_equal(joint[i], solo[0])


def test_pass2_contract_errors():
    params = make_params()
    kv = content_kv(params, [params.config.class_token(0)], [0])
    with pytest.raises(ValueError):
        md.forward_pass2(params, [0], kv)  # condition slot is not a target
    with pytest.raises(ValueError):
        md.forward_pass2(params, [], kv)
    empty = [(np.empty((0, 4, 8)), np.empty((0, 4, 8)))]
    with pytest.raises(ValueError):
        md.forward_pass2(params, [1], empty)


# ---------------------------------------------------------------- train route

def forward_one(params, toks, class_id, perm):
    """forward_train_batch on one sequence: logits [1, T, V], targets [1, T]."""
    cond = np.array([params.config.class_token(class_id)])
    return md.forward_train_batch(params, np.asarray(toks)[None], cond,
                                  np.asarray(perm)[None])


def test_forward_train_identity_perm_is_raster_next_token():
    params = make_params(seed=10)
    rng = np.random.default_rng(11)
    toks = rng.integers(0, 16, 16)
    t = 16
    logits, targets = forward_one(params, toks, 1, np.arange(1, t + 1))
    assert np.array_equal(targets[0], toks)
    # manual raster layout: inputs [class, x1..x15] at positions [0..15]
    in_ids = np.concatenate([[params.config.class_token(1)], toks[:-1]])[None]
    in_pos = np.arange(t)[None]
    h = md.pass1_hidden(params, in_ids, in_pos, at.causal_mask(t))
    kv = md.project_kv(params, h, in_pos)
    ref = md.pass2_logits(params, kv, np.arange(1, t + 1)[None], at.causal_mask(t))
    assert np.array_equal(logits.data, ref.data)


def test_forward_train_equals_preshuffled_layout():
    params = make_params(seed=12)
    rng = np.random.default_rng(13)
    toks = rng.integers(0, 16, 16)
    perm = rng.permutation(16) + 1
    logits, targets = forward_one(params, toks, 2, perm)
    assert np.array_equal(targets[0], toks[perm - 1])
    in_ids = np.concatenate([[params.config.class_token(2)], toks[perm - 1][:-1]])[None]
    in_pos = np.concatenate([[0], perm[:-1]])[None]
    h = md.pass1_hidden(params, in_ids, in_pos, at.causal_mask(16))
    kv = md.project_kv(params, h, in_pos)
    ref = md.pass2_logits(params, kv, perm[None], at.causal_mask(16))
    assert np.array_equal(logits.data, ref.data)


def test_forward_train_rejects_non_bijection():
    params = make_params()
    for perm in (np.ones(16, dtype=int), np.arange(16), np.arange(1, 16)):
        with pytest.raises(ValueError):
            forward_one(params, np.zeros(16, dtype=int), 0, perm)


def test_forward_train_leakage_exact():
    # slot t logits never depend on shuffled inputs at slots >= t
    params = make_params(seed=14)
    rng = np.random.default_rng(15)
    toks = rng.integers(0, 16, 16)
    perm = rng.permutation(16) + 1
    with nc.no_grad():
        base, _ = forward_one(params, toks, 0, perm)
    for t in (3, 8, 14):
        toks2 = toks.copy()
        slots = np.arange(t, 16)
        toks2[perm[slots] - 1] = (toks[perm[slots] - 1] + 1 + rng.integers(0, 14, slots.size)) % 16
        with nc.no_grad():
            pert, _ = forward_one(params, toks2, 0, perm)
        assert np.array_equal(pert.data[0, :t], base.data[0, :t])
        assert not np.array_equal(pert.data[0, t:], base.data[0, t:])


@pytest.mark.parametrize("shared_kv", [True, False])
def test_train_vs_inference_routes_agree(shared_kv):
    # full teacher-forcing kv + Q=T queries: tape route vs row route, float64;
    # query i reads the key prefix k[:i+1], v[:i+1], as the causal mask allows
    params = make_params(seed=16, shared_kv=shared_kv)
    rng = np.random.default_rng(17)
    toks = rng.integers(0, 16, 16)
    perm = rng.permutation(16) + 1
    with nc.no_grad():
        logits, _ = forward_one(params, toks, 3, perm)
    ids = np.concatenate([[params.config.class_token(3)], toks[perm - 1][:-1]])
    pos = np.concatenate([[0], perm[:-1]])
    kv = content_kv(params, ids, pos, pattern="causal")
    ref = np.concatenate([
        md.forward_pass2(params, perm[i:i + 1], [(k[:i + 1], v[:i + 1]) for k, v in kv])
        for i in range(16)])
    assert np.abs(ref - logits.data[0]).max() < 1e-10


def test_mask_embedding_sole_grad_path_through_queries():
    params = make_params(seed=18)
    cfg = params.config
    rng = np.random.default_rng(19)
    toks = rng.integers(0, 16, 16)
    ids = np.concatenate([[cfg.class_token(0)], toks[:-1]])[None]
    pos = np.arange(16)[None]
    with nc.no_grad():
        h = md.pass1_hidden(params, ids, pos, at.causal_mask(16))
        kv = md.project_kv(params, h, pos)
    frozen = [nc.Tensor(t.data) for t in kv]
    nc.zero_grads(params.parameters())
    logits = md.pass2_logits(params, frozen, np.arange(1, 17)[None], at.causal_mask(16))
    nc.cross_entropy(nc.reshape(logits, (16, 16)), toks).backward()
    g = params.token_embedding.grad
    nonzero_rows = np.flatnonzero(np.abs(g).sum(axis=1))
    assert np.array_equal(nonzero_rows, [cfg.mask_token])


@pytest.mark.parametrize("dtype,kw", [(np.float32, {}),
                                      (np.float64, {"dropout": 0.2, "shared_kv": False})])
def test_broadcast_mask_input_bit_equals_gathered_copy(monkeypatch, dtype, kw):
    # pass 2 reads the one [MASK] row through zero leading strides; the logits
    # and every gradient, the [MASK] row's included, are those of a run that
    # feeds it a gathered [B, Q, d] copy
    def run():
        params = make_params(seed=27, dtype=dtype, **kw)
        cfg = params.config
        rng = np.random.default_rng(28)
        toks = rng.integers(0, 16, (2, 16))
        cond = np.array([cfg.class_token(1), cfg.null_class_token])
        perms = np.stack([rng.permutation(16) + 1 for _ in range(2)])
        logits, targets = md.forward_train_batch(params, toks, cond, perms,
                                                 dropout_rng=np.random.default_rng(29))
        nc.cross_entropy(nc.reshape(logits, (32, 16)), targets.reshape(-1)).backward()
        return [logits.data] + [p.grad for p in params.parameters()]

    inputs, broadcast = [], nc.broadcast_row

    def recording(table, row, shape):
        out = broadcast(table, row, shape)
        inputs.append(out.data)
        return out
    monkeypatch.setattr(nc, "broadcast_row", recording)
    got = run()
    assert len(inputs) == 1 and inputs[0].shape == (2, 16, 32)
    assert inputs[0].strides[:2] == (0, 0)
    monkeypatch.setattr(nc, "broadcast_row",
                        lambda table, row, shape: nc.embedding(table, np.full(shape, row)))
    want = run()
    mask_row = tiny_config().mask_token
    assert np.abs(got[1][mask_row]).sum() > 0
    for u, v in zip(got, want):
        assert u.dtype == dtype and np.array_equal(u, v)


def test_train_backward_grad_copies(monkeypatch):
    # the fused ops hand each producer one fresh gradient, and the residual
    # stream adopts each residual node's own .grad; what is still copied: the
    # root and the logits reshape
    params = make_params(seed=23)
    cfg = params.config
    rng = np.random.default_rng(24)
    toks = rng.integers(0, 16, (2, 16))
    cond = np.array([cfg.class_token(1), cfg.null_class_token])
    perms = np.stack([rng.permutation(16) + 1 for _ in range(2)])
    logits, targets = md.forward_train_batch(params, toks, cond, perms)
    loss = nc.cross_entropy(nc.reshape(logits, (32, 16)), targets.reshape(-1))
    copies = []
    accumulate = nc.Tensor._accumulate

    def counting(self, g):
        if self.grad is None:
            copies.append(g.shape)
        accumulate(self, g)
    monkeypatch.setattr(nc.Tensor, "_accumulate", counting)
    loss.backward()
    assert len(copies) == 2


def _train_graph(params, seed):
    """Every node of one forward_train_batch's loss graph, with dropout on when configured."""
    cfg = params.config
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, 16, (2, 16))
    cond = np.array([cfg.class_token(1), cfg.null_class_token])
    perms = np.stack([rng.permutation(16) + 1 for _ in range(2)])
    logits, targets = md.forward_train_batch(params, toks, cond, perms,
                                             dropout_rng=np.random.default_rng(seed + 1))
    loss = nc.cross_entropy(nc.reshape(logits, (32, 16)), targets.reshape(-1))
    nodes, stack, seen = [], [loss], set()
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    return nodes


@pytest.mark.parametrize("kw", [{}, {"dropout": 0.2, "shared_kv": False}])
def test_train_graph_holds_only_fused_projections(kw):
    # every projection writes into the op that reads it, every RMSNorm is
    # folded into the gemm that reads it, and every SwiGLU and attention block
    # into its residual gemm: no residual add, no separate rotation, no k|v
    # split, and no norm, SwiGLU or attention output on the tape. Only the k|v
    # projections, which every query layer reads, are nodes of their own.
    params = make_params(seed=25, **kw)
    names, attention_wo, ffn_w2, rotary_w = set(), set(), set(), set()
    for t in _train_graph(params, 26):
        if t._backward is not None:
            name = t._backward.__qualname__.split(".<locals>")[0]
            names.add(name)
            if name == "attention_block":
                attention_wo.add(t._parents[-1].name)
            if name == "ffn_residual":
                ffn_w2.add(t._parents[-1].name)
            if name == "rotary_matmul":
                rotary_w.add(t._parents[-1].name)
    layers = params.pass1 + params.pass2
    assert {"ffn_residual", "rotary_matmul", "attention_block"} <= names
    assert attention_wo == {layer.wo.name for layer in layers}
    assert ffn_w2 == {layer.w2.name for layer in layers}
    assert rotary_w == {w.name for w in params.kv_proj}
    assert not names & {"add", "mul", "apply_rope", "narrow", "rms_norm", "swiglu",
                        "swiglu_residual", "self_attention", "cross_attention",
                        "residual_matmul"}


def _closure_arrays(fn):
    """Arrays a backward closure reaches: its cells, through containers, tensors,
    nested closures and view bases."""
    stack, seen = [fn], set()
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            yield v
            if v.base is not None:
                stack.append(v.base)
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, nc.Tensor):
            stack.append(v.data)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(c.cell_contents for c in v.__closure__)


@pytest.mark.parametrize("shared_kv", [True, False])
def test_train_graph_holds_no_attention_scores(shared_kv):
    # the attention nodes keep per-row softmax statistics and rebuild their
    # probs in backward: no [B, H, T, S] array waits on the tape
    params = make_params(seed=28, pass2_layers=3, shared_kv=shared_kv)
    cfg = params.config
    scores = (2, cfg.heads, 16, 16)
    stats = 0
    for t in _train_graph(params, 29):
        if t._backward is not None:
            for a in _closure_arrays(t._backward):
                assert a.shape != scores, t._backward.__qualname__
                stats += a.shape == scores[:3] + (1,)
    assert stats == 2 * (cfg.pass1_layers + cfg.pass2_layers)


@pytest.mark.parametrize("shared_kv", [True, False])
def test_train_graph_holds_no_ffn_products(shared_kv):
    # the FFN nodes rebuild their gate|up product in backward: no [..., B, T, 2f]
    # array waits on the tape
    params = make_params(seed=30, pass2_layers=3, shared_kv=shared_kv)
    cfg = params.config
    gate_up = (2, 16, 2 * cfg.ffn_hidden)
    ffn_nodes = 0
    for t in _train_graph(params, 31):
        if t._backward is not None:
            for a in _closure_arrays(t._backward):
                assert a.shape[-3:] != gate_up, t._backward.__qualname__
            ffn_nodes += t._backward.__qualname__.startswith("ffn_residual")
    assert ffn_nodes == cfg.pass1_layers + cfg.pass2_layers


@pytest.mark.parametrize("shared_kv", [True, False])
def test_train_graph_holds_no_rotary_tables(shared_kv):
    # the rotary nodes (the k|v projections and the attention blocks) keep
    # their positions and gather the table rows again in backward: no
    # [B, T, hd/2] cos/sin or [B, T, hd] interleaved rows wait on the tape
    params = make_params(seed=32, pass2_layers=3, shared_kv=shared_kv)
    cfg = params.config
    tables = {(2, 16, cfg.head_dim // 2), (2, 16, cfg.head_dim)}
    rotary_nodes = 0
    for t in _train_graph(params, 33):
        if t._backward is not None and t._backward.__qualname__.startswith(
                ("rotary_matmul", "attention_block")):
            rotary_nodes += 1
            for a in _closure_arrays(t._backward):
                assert not (a.dtype.kind == "f" and a.shape in tables), a.shape
    assert rotary_nodes == cfg.pass1_layers + len(params.kv_proj) + cfg.pass2_layers


@pytest.mark.parametrize("kw", [{"shared_kv": True}, {"shared_kv": False, "dropout": 0.2}])
def test_train_graph_holds_no_attention_projections(kw):
    # an attention node rebuilds its q|k|v or q projection in backward: each
    # float array its closure reaches is a parent's data (or the base that
    # data views), the input's [B, T, 1] norm scale, one of the two [B, H, T, 1]
    # softmax statistics or, with dropout, the 0-or-1/(1-p) keep mask
    params = make_params(seed=34, pass2_layers=3, **kw)
    cfg = params.config
    wos = {id(layer.wo) for layer in params.pass1 + params.pass2}
    blocks = 0
    for t in _train_graph(params, 35):
        if t._backward is None or not any(id(p) in wos for p in t._parents):
            continue
        blocks += 1
        held = set()
        for p in t._parents:
            a = p.data
            while a is not None:
                held.add(id(a))
                a = a.base
        kinds = []
        for a in _closure_arrays(t._backward):
            if a.dtype.kind != "f" or id(a) in held:
                continue
            if a.shape == (2, 16, 1):
                kinds.append("scale")
            elif a.shape == (2, cfg.heads, 16, 1):
                kinds.append("stat")
            else:
                assert a.shape == (2, 16, cfg.hidden) and np.unique(a).size <= 2, \
                    (t._backward.__qualname__, a.shape)
                kinds.append("keep")
        assert sorted(kinds) == ["keep"] * (cfg.dropout > 0) + ["scale"] + ["stat"] * 2, kinds
    assert blocks == cfg.pass1_layers + cfg.pass2_layers


def test_dropout_is_seeded_and_active():
    params = make_params(seed=20, dropout=0.2, dtype=np.float64)
    rng = np.random.default_rng(21)
    toks = rng.integers(0, 16, 16)
    perm = np.arange(1, 17)
    cond = np.array([params.config.class_token(0)])
    with nc.no_grad():
        a, _ = md.forward_train_batch(params, toks[None], cond, perm[None],
                                      dropout_rng=np.random.default_rng(5))
        b, _ = md.forward_train_batch(params, toks[None], cond, perm[None],
                                      dropout_rng=np.random.default_rng(5))
        c, _ = md.forward_train_batch(params, toks[None], cond, perm[None])
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_forward_train_golden():
    # frozen regression values; any numeric drift in the stack shows up here
    params = make_params(seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    toks = rng.integers(0, 16, 16)
    perm = rng.permutation(16) + 1
    with nc.no_grad():
        logits, _ = forward_one(params, toks, 1, perm)
    assert abs(np.abs(logits.data).sum() - 18.198731908786836) < 1e-9
    assert abs(logits.data[0, 3, 7] - 0.1330232930417202) < 1e-12



def test_train_backward_golden():
    # frozen loss and per-parameter gradient norms of one float64 step, in
    # params.parameters() order; drift in the backward pass shows up here
    params = make_params(seed=0, dtype=np.float64)
    loss = _train_graph(params, 1)[0]
    loss.backward()
    norms = [np.sqrt((p.grad ** 2).sum()) for p in params.parameters()]
    golden = [1.251275835379591, 0.06512802666067632, 0.07811046947866927,
              0.0011412721531233515, 0.00010997143594616721, 0.006725684197923139,
              0.004954107951498025, 0.059436068443145404, 0.059484686859052414,
              0.0010201517858917607, 0.00010417174192685684, 0.006394058582110485,
              0.004127977321527565, 0.0018357332522289666, 0.10807676822202268,
              0.020659762757011008, 1.1382145478372756, 0.07383135569677866,
              0.0002635914015716433, 0.011486323661661357, 0.008890466974729706,
              0.022295518687374595, 1.1020899316895867, 0.08825729600878933,
              0.00018390304192098485, 0.01158769800567325, 0.009023497002675577,
              0.016182547346320707, 1.040127890734875]
    assert abs(float(loss.data) - 2.784013506952557) < 1e-12
    np.testing.assert_allclose(norms, golden, rtol=1e-9, atol=0)
    # the same step with one k|v weight per query layer
    params = make_params(seed=0, dtype=np.float64, shared_kv=False)
    loss = _train_graph(params, 1)[0]
    loss.backward()
    norms = [np.sqrt((p.grad ** 2).sum()) for p in params.parameters()]
    golden = [1.043456403483904, 0.0587311848678078, 0.06746757371536936,
              0.0010960517516767777, 0.00010243778819594555, 0.00604558698779728,
              0.004691113851832758, 0.05007289617191896, 0.054433112304554575,
              0.001009927289006539, 8.418117649068361e-05, 0.0056856891226334735,
              0.0037415079758216707, 0.0019314966664834795, 0.06364514200401686,
              0.08605603753887255, 0.018231313016097733, 1.1186198227490547,
              0.06919390505929689, 0.00023902159071244366, 0.01374984674434886,
              0.00990382264397391, 0.020927170583959022, 1.3271852904424961,
              0.07697422749031996, 0.0002150646962334816, 0.01610867034539223,
              0.01146453695367689, 0.01441092154313225, 1.0547103579821406]
    assert abs(float(loss.data) - 2.775318284418228) < 1e-12
    np.testing.assert_allclose(norms, golden, rtol=1e-9, atol=0)
