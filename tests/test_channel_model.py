import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from beamshare import channel_model
from beamshare.channel_model import (
    SingularChannel,
    SystemConfig,
    TrialSeed,
    effective_gains,
    realize,
    realize_block,
    sample_channels,
    zf_beams,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(2, 3, 10.0, 1.0, 1.0)  # fewer antennas than beams
    with pytest.raises(ValueError):
        SystemConfig(2, 0, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemConfig(2, 2, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemConfig(2, 2, 10.0, 0.0, 1.0)
    # 2**r_p - 1 must stay finite: 2.0**1024 overflows, 2**inf is infinite
    for r_p in (1024.0, 2000.0, float("inf")):
        with pytest.raises(ValueError, match="r_p"):
            SystemConfig(2, 2, 10.0, r_p, 1.0)
    cfg = SystemConfig(4, 2, 10.0, 1.0, 2.0)
    assert cfg.eps_p == pytest.approx(1.0)


def test_trial_seed_validation():
    with pytest.raises(ValueError):
        TrialSeed(-1, 0)
    with pytest.raises(ValueError):
        TrialSeed(2 ** 64, 0)
    with pytest.raises(ValueError):
        TrialSeed(1, -1)
    for trial, attempt in ((2 ** 64, 0), (0, 2 ** 64)):
        with pytest.raises(ValueError):
            TrialSeed(1, trial, attempt)


def test_entry_variance():
    # CN(0,1) entries: mean |entry|^2 of 1e5 draws must sit within 0.02 of 1
    cfg = SystemConfig(4, 4, 10.0, 1.0, 1.0)
    G, h = sample_channels(cfg, [TrialSeed(11, t) for t in range(5000)])
    acc = float(np.sum(np.abs(G) ** 2)) + float(np.sum(np.abs(h) ** 2))
    count = G.size + h.size
    assert count >= 100_000
    assert abs(acc / count - 1.0) < 0.02


def test_sampling_deterministic_bitwise():
    # a row depends on its own seed alone, not on the block around it
    cfg = SystemConfig(4, 3, 10.0, 1.0, 1.0)
    G1, h1 = sample_channels(cfg, [TrialSeed(5, 17)])
    G2, h2 = sample_channels(cfg, [TrialSeed(5, 16), TrialSeed(5, 17)])
    assert G1[0].tobytes() == G2[1].tobytes()
    assert h1[0].tobytes() == h2[1].tobytes()
    assert G1[0].tobytes() != G2[0].tobytes()


def test_threads_sampling_at_once_get_their_own_streams():
    # every block shares one generator; switching threads as often as the
    # interpreter allows must not mix one block's state into another's draw
    cfg = SystemConfig(8, 8, 10.0, 1.0, 1.0)
    blocks = [[TrialSeed(61, 64 * b + t) for t in range(64)] for b in range(16)]
    alone = [sample_channels(cfg, seeds) for seeds in blocks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            shared = list(pool.map(lambda seeds: sample_channels(cfg, seeds), blocks))
    finally:
        sys.setswitchinterval(interval)
    for (G, h), (G_ref, h_ref) in zip(shared, alone):
        assert G.tobytes() == G_ref.tobytes() and h.tobytes() == h_ref.tobytes()


def test_column_independence():
    # E|g_1^H g_2|^2 = N for independent CN(0, I_N) columns; the normalized
    # statistic over 1e4 draws must be 1 within 3 standard errors
    cfg = SystemConfig(4, 2, 10.0, 1.0, 1.0)
    G, _ = sample_channels(cfg, [TrialSeed(13, t) for t in range(10_000)])
    vals = np.abs(np.sum(G[:, :, 0].conj() * G[:, :, 1], axis=1)) ** 2 / cfg.n_antennas
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - 1.0) < 3 * se


def test_zf_identity_matrix():
    # orthonormal columns: each beam is the channel scaled to norm 1/sqrt(2)
    F, g_gain = zf_beams(np.eye(2, dtype=complex))
    assert np.allclose(F, np.diag([1 / math.sqrt(2)] * 2))
    assert np.allclose(g_gain, [0.5, 0.5])


def test_zf_single_beam():
    g = np.array([[0.6], [0.8j]], dtype=complex)
    F, g_gain = zf_beams(g)
    assert np.allclose(F, g)
    assert g_gain == pytest.approx([1.0])


def _pinv_oracle(G: np.ndarray) -> np.ndarray:
    # independent construction: conjugated pseudo-inverse rows, rescaled so
    # each beam has norm 1/sqrt(M)
    m = G.shape[1]
    rows = np.linalg.pinv(G)
    F = np.empty_like(G)
    for k in range(m):
        u = rows[k, :].conj()
        F[:, k] = u / (np.linalg.norm(u) * math.sqrt(m))
    return F


def test_zf_matches_pinv_oracle():
    rng = np.random.default_rng(99)
    for _ in range(20):
        G = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2)
        F, _ = zf_beams(G)
        assert np.max(np.abs(F - _pinv_oracle(G))) < 1e-9


def test_zf_bulk_invariants():
    for size in (2, 3, 4):
        cfg = SystemConfig(size, size, 10.0, 1.0, 1.0)
        for t in range(200):
            chan = realize(cfg, TrialSeed(21, t))
            cross = chan.G.conj().T @ chan.F
            off = np.abs(cross - np.diag(np.diag(cross)))
            assert off.max() < 1e-9
            assert abs(np.sum(np.abs(chan.F) ** 2) - 1.0) < 1e-9
            inv_diag = np.real(np.diag(np.linalg.inv(chan.G.conj().T @ chan.G)))
            ref = 1.0 / (size * inv_diag)
            assert np.max(np.abs(chan.g_gain - ref) / ref) < 1e-9


def test_zf_rejects_singular():
    G = np.ones((3, 2), dtype=complex)  # identical columns
    with pytest.raises(SingularChannel):
        zf_beams(G)


def test_effective_gains_projection():
    # h aligned with one beam: h_gain = |c|^2 ||f||^4 there, ~0 elsewhere
    rng = np.random.default_rng(3)
    G = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / math.sqrt(2)
    F, _ = zf_beams(G)
    h = 2.0 * F[:, 0]
    h_gain = effective_gains(h, F)
    norm_sq = float(np.sum(np.abs(F[:, 0]) ** 2))
    assert h_gain[0] == pytest.approx(4.0 * norm_sq ** 2, rel=1e-12)


def test_effective_gains_orthogonal():
    F = np.eye(3, dtype=complex)[:, :2] / math.sqrt(2)
    h = np.array([0.0, 0.0, 5.0], dtype=complex)
    h_gain = effective_gains(h, F)
    assert np.all(h_gain == 0.0)


def test_realize_resamples_with_derived_subseed(monkeypatch):
    cfg = SystemConfig(2, 2, 10.0, 1.0, 1.0)
    real_zf = channel_model.zf_beams
    calls = {"n": 0}

    def flaky(G):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SingularChannel("injected")
        return real_zf(G)

    monkeypatch.setattr(channel_model, "zf_beams", flaky)
    chan = realize(cfg, TrialSeed(41, 7))
    assert chan.resamples == 1
    monkeypatch.setattr(channel_model, "zf_beams", real_zf)
    # the redraw is the attempt-1 stream, reproducible in isolation
    ref = realize(cfg, TrialSeed(41, 7, attempt=1))
    assert chan.G.tobytes() == ref.G.tobytes()
    assert chan.h.tobytes() == ref.h.tobytes()


def _same_draw(a, b):
    for name in ("G", "h", "F", "g_gain", "h_gain"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.resamples == b.resamples


def test_block_draws_equal_scalar_realize_bitwise():
    # the stacked svd/inv/matmul does per matrix what the single call does,
    # whatever the block's size and the trial's place in it
    for m in range(1, 9):
        for n in sorted({m, m + 1, m + 3, 8}):
            cfg = SystemConfig(n, m, 10.0, 0.1, 1.0)
            seeds = [TrialSeed(29, t) for t in range(12)]
            for size in (1, 5, 12):
                chans = []
                for start in range(0, len(seeds), size):
                    part = seeds[start : start + size]
                    block = realize_block(cfg, part)
                    chans += map(block.draw, range(len(part)))
                for chan, seed in zip(chans, seeds):
                    _same_draw(chan, realize(cfg, seed))


def test_block_redraws_only_the_singular_row(monkeypatch):
    cfg = SystemConfig(3, 2, 10.0, 1.0, 1.0)
    seeds = [TrialSeed(41, t) for t in range(6)]
    clean = realize_block(cfg, seeds)
    real_sample = channel_model.sample_channels
    calls = []

    def singular_once(cfg, seeds):
        calls.append([(seed.trial_index, seed.attempt) for seed in seeds])
        G, h = real_sample(cfg, seeds)
        for row, seed in enumerate(seeds):
            if seed.trial_index == 3 and seed.attempt == 0:
                G[row] = 1.0  # identical columns
        return G, h

    monkeypatch.setattr(channel_model, "sample_channels", singular_once)
    block = realize_block(cfg, seeds)
    # one draw of the block, one more of the rows to redraw
    assert calls == [[(t, 0) for t in range(6)], [(3, 1)]]
    assert block.resamples == [0, 0, 0, 1, 0, 0]
    monkeypatch.setattr(channel_model, "sample_channels", real_sample)
    for t in (0, 1, 2, 4, 5):
        _same_draw(block.draw(t), clean.draw(t))
    # the redraw is trial 3's attempt-1 stream, reproducible in isolation
    redraw = realize(cfg, TrialSeed(41, 3, attempt=1))
    for name in ("G", "h", "F", "g_gain", "h_gain"):
        assert getattr(block.draw(3), name).tobytes() == getattr(redraw, name).tobytes()


def test_zf_names_the_singular_matrices_of_a_stack():
    G = np.stack([np.eye(3, 2, dtype=complex), np.ones((3, 2), dtype=complex)] * 2)
    with pytest.raises(SingularChannel) as exc:
        zf_beams(G)
    assert exc.value.rows == [1, 3]
