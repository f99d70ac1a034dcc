"""Tests of the benchmark itself: every output check rejects a planted wrong
output and accepts the real one, and tracing changes no output.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import arpg.decoding as dec  # noqa: E402
from arpg import (ArpgParams, DecodeConfig, ModelConfig, TokenGrid, expand,  # noqa: E402
                  generate, inpaint, sequential_reference_generate)

import checks as ck  # noqa: E402
from tracer import arpg_tracer  # noqa: E402
from workloads import replay_request, replay_steps, tape_and_fd_gradients  # noqa: E402

TINY = ModelConfig(hidden=32, heads=2, pass1_layers=1, pass2_layers=1, seq_len=16)
CELLS = np.arange(1, TINY.seq_len + 1)
PARALLEL = DecodeConfig(steps=4, cfg_scale=3.0, temperature=1.0, top_k=8, top_p=0.9, seed=5)


@pytest.fixture(scope="module")
def params():
    return ArpgParams.init(TINY, np.random.default_rng(0))


def flip(tokens, flat_index):
    bad = np.array(tokens, copy=True)
    bad.flat[flat_index] = (bad.flat[flat_index] + 1) % TINY.vocab_size
    return bad


def test_flipped_known_cell_is_rejected(params):
    partial = TokenGrid(np.random.default_rng(1).integers(0, 16, (4, 4)), 1)
    known = np.array([0, 3, 5, 9, 12])
    out = inpaint(params, partial, known, 1, DecodeConfig(steps=4, seed=2)).tokens
    ck.check_kept(out, partial.tokens, known, "inpaint")
    with pytest.raises(ck.CheckFailed, match="known cells"):
        ck.check_kept(flip(out, 5), partial.tokens, known, "inpaint")


def test_shifted_base_is_rejected(params):
    base = np.random.default_rng(3).integers(0, 16, (4, 4))
    out = expand(params, TokenGrid(base, 0), 6, 6, "resolution", DecodeConfig(steps=4)).tokens
    ck.check_anchor(out, base, 1, 1, "resolution")
    with pytest.raises(ck.CheckFailed, match="offset"):
        ck.check_anchor(flip(out, 7), base, 1, 1, "resolution")


def test_duplicated_cell_in_decode_order_is_rejected(params):
    sink: list = []
    generate(params, 0, DecodeConfig(steps=4, seed=4), state_sink=sink)
    order = np.asarray(sink[0].permutation)
    ck.check_order(order, CELLS, "generate")
    bad = order.copy()
    bad[1] = bad[0]
    with pytest.raises(ck.CheckFailed, match="repeated"):
        ck.check_order(bad, CELLS, "generate")


def test_id_outside_vocabulary_is_rejected():
    ck.check_ids(np.array([0, 15]), 16, "ids")
    with pytest.raises(ck.CheckFailed):
        ck.check_ids(np.array([0, 16]), 16, "ids")


def test_replay_passes_and_perturbed_logit_is_rejected(params):
    tokens = generate(params, 2, PARALLEL).tokens
    replay_request(params, 2, PARALLEL, tokens, "request")
    _, steps = replay_steps(params, 2, PARALLEL)
    assert len(steps) == PARALLEL.steps and len(steps[0][2]) == 2  # two CFG streams
    cache, tape = steps[1][2][0], steps[1][3][0]
    bad = cache.copy()
    bad[0, 3] += 2 * (ck.LOGIT_ATOL + ck.LOGIT_RTOL * abs(tape[0, 3]))
    with pytest.raises(ck.CheckFailed, match="beyond tolerance"):
        ck.check_close(bad, tape, "logits")


def test_id_outside_top_k_top_p_set_is_rejected(params):
    _, steps = replay_steps(params, 1, PARALLEL)
    chunk, ids, cache_logits, _, _ = steps[0]
    guided = cache_logits[0]  # the ramp starts at scale 1: guided = cond
    ck.check_in_filtered_set(ids, guided, 1.0, 8, 0.9, "step 0")
    bad = ids.copy()
    bad[0] = int(np.argmin(guided[0]))
    with pytest.raises(ck.CheckFailed, match="top-k/top-p"):
        ck.check_in_filtered_set(bad, guided, 1.0, 8, 0.9, "step 0")


def test_one_wrong_token_at_s_equals_t_is_rejected(params):
    dc = DecodeConfig(steps=TINY.seq_len, temperature=0.0, seed=6)
    got = generate(params, 3, dc).tokens
    ref = sequential_reference_generate(params, 3, dc).tokens
    ck.check_equal(got, ref, "S = T")
    with pytest.raises(ck.CheckFailed, match="differ"):
        ck.check_equal(flip(got, 9), ref, "S = T")


def test_gradient_off_by_more_than_fd_tolerance_is_rejected():
    tape, fd = tape_and_fd_gradients(seed=0)
    ck.check_gradients(tape, fd)
    i = int(np.argmax(np.abs(fd)))
    bad = tape.copy()
    bad[i] += 2 * (ck.GRAD_ATOL + ck.GRAD_RTOL * abs(fd[i]))
    with pytest.raises(ck.CheckFailed, match="gradient"):
        ck.check_gradients(bad, fd)


def test_loss_checks():
    ck.check_first_loss(np.log(16) + 0.05, 16)
    with pytest.raises(ck.CheckFailed):
        ck.check_first_loss(np.log(16) + 0.2, 16)
    ck.check_loss_falls([2.8, 2.6, 2.2, 2.0])
    with pytest.raises(ck.CheckFailed):
        ck.check_loss_falls([2.8, 2.9, 2.8, 2.9])


def test_tracing_changes_no_output_and_uninstall_restores(params):
    original = dec.sample_tokens
    dc = DecodeConfig(steps=4, cfg_scale=2.0, seed=7)
    plain = generate(params, 1, dc).tokens
    tracer = arpg_tracer()
    tracer.install()
    try:
        with tracer.span("decoding.request"):
            traced = generate(params, 1, dc).tokens
    finally:
        tracer.uninstall()
    assert dec.sample_tokens is original
    np.testing.assert_array_equal(traced, plain)
    layers = tracer.layer_metrics(1)
    assert layers["model.pass2_calls"] == 2 * dc.steps  # two CFG streams
    assert layers["model.pass2_rows"] == 2 * TINY.seq_len
    assert layers["decoding.sample_rows"] == TINY.seq_len
    covered = sum(tracer.self_s.values())
    assert covered == pytest.approx(tracer.incl_s["decoding.request"], rel=1e-9)
