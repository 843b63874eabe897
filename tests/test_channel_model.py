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


# cond(G) = 2e11 passes the SVD's COND_LIMIT, but G^H G rounds to the
# exactly singular [[1, 1], [1, 1]], so inv cannot invert it
_NO_GRAM_INVERSE = np.array([[1.0, 1.0], [0.0, 1e-11], [0.0, 0.0]], dtype=complex)


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
    (G, h), = sample_channels([cfg], [(11, t, 0) for t in range(5000)])
    acc = float(np.sum(np.abs(G) ** 2)) + float(np.sum(np.abs(h) ** 2))
    count = G.size + h.size
    assert count >= 100_000
    assert abs(acc / count - 1.0) < 0.02


def test_sampling_deterministic_bitwise():
    # a row depends on its own seed alone, not on the block around it
    cfg = SystemConfig(4, 3, 10.0, 1.0, 1.0)
    (G1, h1), = sample_channels([cfg], [(5, 17, 0)])
    (G2, h2), = sample_channels([cfg], [(5, 16, 0), (5, 17, 0)])
    assert G1[0].tobytes() == G2[1].tobytes()
    assert h1[0].tobytes() == h2[1].tobytes()
    assert G1[0].tobytes() != G2[0].tobytes()


def test_threads_sampling_at_once_get_their_own_streams():
    # every block shares one generator; switching threads as often as the
    # interpreter allows must not mix one block's state into another's draw
    cfg = SystemConfig(8, 8, 10.0, 1.0, 1.0)
    blocks = [[(61, 64 * b + t, 0) for t in range(64)] for b in range(16)]
    alone = [sample_channels([cfg], seeds)[0] for seeds in blocks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            shared = list(pool.map(lambda seeds: sample_channels([cfg], seeds)[0], blocks))
    finally:
        sys.setswitchinterval(interval)
    for (G, h), (G_ref, h_ref) in zip(shared, alone):
        assert G.tobytes() == G_ref.tobytes() and h.tobytes() == h_ref.tobytes()


def test_column_independence():
    # E|g_1^H g_2|^2 = N for independent CN(0, I_N) columns; the normalized
    # statistic over 1e4 draws must be 1 within 3 standard errors
    cfg = SystemConfig(4, 2, 10.0, 1.0, 1.0)
    (G, _), = sample_channels([cfg], [(13, t, 0) for t in range(10_000)])
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
            seeds = [(29, t, 0) for t in range(12)]
            for size in (1, 5, 12):
                chans = []
                for start in range(0, len(seeds), size):
                    part = seeds[start : start + size]
                    block, = realize_block([cfg], part)
                    chans += map(block.draw, range(len(part)))
                for chan, seed in zip(chans, seeds):
                    _same_draw(chan, realize(cfg, TrialSeed(*seed)))


def test_block_redraws_only_the_singular_row(monkeypatch):
    cfg = SystemConfig(3, 2, 10.0, 1.0, 1.0)
    seeds = [(41, t, 0) for t in range(6)]
    clean, = realize_block([cfg], seeds)
    real_sample = channel_model.sample_channels
    calls = []

    def singular_once(cfgs, seeds):
        rows = np.asarray(seeds).tolist()
        calls.append([(trial, attempt) for _, trial, attempt in rows])
        draws = real_sample(cfgs, seeds)
        for row, (_, trial, attempt) in enumerate(rows):
            if trial == 3 and attempt == 0:
                draws[0][0][row] = 1.0  # identical columns
        return draws

    monkeypatch.setattr(channel_model, "sample_channels", singular_once)
    block, = realize_block([cfg], seeds)
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


def test_zf_names_the_matrices_whose_gram_cannot_be_inverted():
    sv = np.linalg.svd(_NO_GRAM_INVERSE, compute_uv=False)
    assert sv[0] / sv[-1] < channel_model.COND_LIMIT
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(_NO_GRAM_INVERSE.conj().T @ _NO_GRAM_INVERSE)
    with pytest.raises(SingularChannel, match="not invertible") as exc:
        zf_beams(_NO_GRAM_INVERSE)
    assert exc.value.rows == [0]
    regular = np.eye(3, 2, dtype=complex)
    stack = np.stack([regular, _NO_GRAM_INVERSE, 2.0 * regular, _NO_GRAM_INVERSE, regular])
    with pytest.raises(SingularChannel, match="not invertible") as exc:
        zf_beams(stack)
    assert exc.value.rows == [1, 3]


def _zf_svd_first(G):
    """zf_beams' rule with an SVD of every matrix first: (rows it raises
    on, or "inv" where inv fails on the stack, or None; (F, g_gain))."""
    m = G.shape[-1]
    sv = np.linalg.svd(G, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[..., 0] / sv[..., -1]
    if not np.all(cond < channel_model.COND_LIMIT):
        return np.flatnonzero(~(cond < channel_model.COND_LIMIT)).tolist(), None
    try:
        gram_inv = np.linalg.inv(G.conj().swapaxes(-1, -2) @ G)
    except np.linalg.LinAlgError:
        return "inv", None
    diag = np.real(np.diagonal(gram_inv, axis1=-2, axis2=-1))
    ok = np.all((diag > 0.0) & np.isfinite(diag), axis=-1)
    if not ok.all():
        return np.flatnonzero(~ok).tolist(), None
    F = (G @ gram_inv) * (1.0 / np.sqrt(m * diag))[..., None, :]
    return None, (F, np.abs(np.einsum("...nm,...nm->...m", G.conj(), F)) ** 2)


def _invertible(a):
    try:
        np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def test_certified_conditioning_matches_the_svd_rule():
    # stacks G = U diag(s) V^H with cond 10^0 .. 10^15 and exactly singular
    # matrices, in shuffled order: zf_beams raises on the rows the SVD rule
    # raises on, and where that rule passes the stack, F and g_gain are its
    # bytes; rows inv cannot invert (the SVD rule crashed on them) are
    # named as singular.  The raised rows are removed and the rest retried.
    rng = np.random.default_rng(2024)
    outcomes = set()
    for m in range(1, 9):
        for n in range(m, m + 3):
            mats = []
            for k in [*range(16), None, None]:
                s = np.logspace(0.0, -(k or 0), m) if m > 1 else np.ones(1)
                if k is None:
                    s[-1] = 0.0
                mats.append(_unitary(rng, n)[:, :m] * s @ _unitary(rng, m).conj().T)
            G = np.stack([mats[i] for i in rng.permutation(len(mats))])
            while len(G):
                rows, want = _zf_svd_first(G)
                outcomes.add("inv" if rows == "inv" else "pass" if rows is None else "raise")
                if rows == "inv":
                    rows = [i for i, g in enumerate(G) if not _invertible(g.conj().T @ g)]
                    assert rows
                if rows is None:
                    F, g_gain = zf_beams(G)
                    assert F.tobytes() == want[0].tobytes()
                    assert g_gain.tobytes() == want[1].tobytes()
                    break
                with pytest.raises(SingularChannel) as exc:
                    zf_beams(G)
                assert exc.value.rows == rows, (m, n)
                G = np.delete(G, rows, axis=0)
    assert outcomes == {"raise", "pass", "inv"}


def test_clean_rayleigh_blocks_skip_the_svd(monkeypatch):
    # benchmark-size blocks: every Gram matrix is certified by its inverse
    svd, calls = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    cfgs = [SystemConfig(m, m, 10.0, 0.1, 1.0) for m in (2, 4, 8)]
    for seed in range(16):
        blocks = realize_block(cfgs, [(seed, t, 0) for t in range(100)])
        assert [block.resamples for block in blocks] == [[0] * 100] * 3
    assert calls == []


def test_geometries_share_one_draw_and_redraw_alone(monkeypatch):
    # each geometry reads its prefix of one draw per trial and equals its
    # block drawn alone; a singular row redraws in its own geometry only
    cfgs = [SystemConfig(n, m, 10.0, 1.0, 1.0) for n, m in ((2, 2), (3, 2), (8, 8), (5, 1))]
    seeds = [(41, t, 0) for t in range(6)]
    alone = [realize_block([cfg], seeds)[0] for cfg in cfgs]
    for shared, block in zip(realize_block(cfgs, seeds), alone):
        for t in range(6):
            _same_draw(shared.draw(t), block.draw(t))
    real_sample = channel_model.sample_channels

    def singular_once(cfgs, seeds):
        draws = real_sample(cfgs, seeds)
        if len(cfgs) > 1:
            draws[1][0][3] = _NO_GRAM_INVERSE
        return draws

    monkeypatch.setattr(channel_model, "sample_channels", singular_once)
    blocks = realize_block(cfgs, seeds)
    assert [sum(block.resamples) for block in blocks] == [0, 1, 0, 0]
    assert blocks[1].resamples[3] == 1
    monkeypatch.setattr(channel_model, "sample_channels", real_sample)
    for shared, block in zip(blocks, alone):
        for t in range(6):
            if shared is not blocks[1] or t != 3:
                _same_draw(shared.draw(t), block.draw(t))
    # the redraw is trial 3's attempt-1 stream in its own geometry
    redraw = realize(cfgs[1], TrialSeed(41, 3, attempt=1))
    for name in ("G", "h", "F", "g_gain", "h_gain"):
        assert getattr(blocks[1].draw(3), name).tobytes() == getattr(redraw, name).tobytes()
