import json
import os
import stat

import pytest

import beamshare.cli as cli_mod
from beamshare import montecarlo
from beamshare.cli import CSV_HEADER, _parse_snr_grid, main


def _write_config(path, **overrides):
    cfg = dict(
        n_antennas=2,
        m_beams=2,
        snr_db=[10.0],
        r_p_bpcu=0.1,
        r_s_bpcu=1.0,
        trials=20,
        seed=3,
        schemes=["selection", "scheme1"],
        metric="outage",
    )
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def _rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == CSV_HEADER
    return lines[1:]


def test_sweep_minimal_config(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", r_s_bpcu=1)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert "# r_p_bpcu: 0.1 r_s_bpcu: 1.0\n" in out.read_text()  # ints print as floats
    rows = _rows(out.read_text())
    assert len(rows) == 2  # one SNR point x two schemes
    for row in rows:
        fields = row.split(",")
        assert fields[3] in ("selection", "scheme1")
        assert fields[4] == "outage"
        assert 0.0 <= float(fields[5]) <= 1.0


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_bad_geometry(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", n_antennas=1, m_beams=2)
    assert main(["sweep", "--config", cfg, "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert "n_antennas must be >= m_beams" in err


def test_sweep_rejects_unknown_field(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    _write_config(path)
    raw = json.loads(path.read_text())
    raw["snr_dbs"] = raw.pop("snr_db")
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(path), "--out", "-"]) == 2
    assert "snr_dbs" in capsys.readouterr().err


def test_sweep_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path), "--out", "-"]) == 2
    assert "JSON" in capsys.readouterr().err


def test_sweep_unwritable_output(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    target = tmp_path / "missing-dir" / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(target)]) == 3
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_sweep_overrides_and_stdout(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    code = main(
        [
            "sweep",
            "--config",
            cfg,
            "--trials",
            "5",
            "--snr-db",
            "0:20:10",
            "--metric",
            "ergodic_rate",
            "--out",
            "-",
        ]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 6  # three SNR points x two schemes
    assert {r.split(",")[0] for r in rows} == {"0.0", "10.0", "20.0"}


def test_bad_snr_spec(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["sweep", "--config", cfg, "--snr-db", "10:0:5", "--out", "-"]) == 2


def test_snr_grid_has_no_float_drift():
    # every point is start + k*step, never a running sum of steps
    grid = _parse_snr_grid("0:1000:0.001")
    assert grid == tuple(round(k * 0.001, 9) for k in range(1_000_001))
    assert _parse_snr_grid("0:40:5") == tuple(float(v) for v in range(0, 41, 5))
    # the rounding allowance is a fraction of a step, so the smallest
    # steps do not reach past stop
    assert _parse_snr_grid("0:1e-9:1e-9") == (0.0, 1e-9)
    assert _parse_snr_grid("0:3e-9:1e-9") == (0.0, 1e-9, 2e-9, 3e-9)


@pytest.mark.parametrize(
    "config, flags, culprit",
    [
        pytest.param({}, ["--seed", "-1"], "seed", id="seed-negative"),
        pytest.param({}, ["--seed", str(2 ** 64)], "seed", id="seed-2**64"),
        pytest.param({}, ["--snr-db", "nan"], "snr_db", id="snr-nan"),
        pytest.param({}, ["--snr-db", "inf"], "snr_db", id="snr-inf"),
        pytest.param({}, ["--snr-db", "0:inf:5"], "snr-db", id="snr-grid-inf"),
        pytest.param({}, ["--snr-db", "0:40:1e-12"], "snr-db", id="snr-grid-tiny-step"),
        pytest.param({}, ["--snr-db", "0:1e300:1"], "snr-db", id="snr-grid-huge"),
        pytest.param({}, ["--snr-db", "5000"], "snr_db", id="snr-overflow"),
        pytest.param({}, ["--workers", "-3"], "workers", id="workers-negative"),
        pytest.param({"trials": 2.7}, [], "trials", id="trials-float"),
        pytest.param({"seed": True}, [], "seed", id="seed-bool"),
        pytest.param({"r_s_bpcu": "1"}, [], "r_s", id="rate-string"),
        pytest.param(
            {"schemes": "selection"}, [], "schemes must be a list", id="schemes-string"
        ),
        pytest.param(
            {"schemes": ["selection"] * 2}, [], "schemes", id="schemes-repeated"
        ),
        pytest.param({"r_p_bpcu": 1024}, [], "r_p", id="rate-overflow"),
        pytest.param(
            {"n_antennas": 9, "m_beams": 9, "schemes": ["selection", "scheme2"]},
            ["--strategy", "all-subsets"],
            "all_subsets",
            id="all-subsets-9-beams",
        ),
        pytest.param(
            {"candidate_strategy": "prefixes"},
            [],
            "candidate_strategy",
            id="strategy-removed",
        ),
        # trial indices are 64-bit; such a run used to hang building blocks
        pytest.param({}, ["--trials", "99999999999999999999"], "trials", id="trials-64-bit"),
    ],
)
def test_bad_input_exits_2_with_one_line(
    tmp_path, capsys, monkeypatch, config, flags, culprit
):
    def no_trials(*args):
        raise AssertionError("a trial ran before the input was rejected")

    monkeypatch.setattr(montecarlo, "realize_block", no_trials)
    cfg = _write_config(tmp_path / "cfg.json", **config)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert culprit in lines[0]
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_removed_strategy_flag_exits_2(tmp_path, capsys):
    # prefixes is no longer a strategy: argparse rejects the choice
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out.csv"
    args = ["sweep", "--config", cfg, "--strategy", "prefixes", "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'prefixes'" in captured.err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("target", ["F.csv", "-"])
def test_preset_failure_writes_nothing(tmp_path, capsys, target):
    # the M = 2 block would be valid; M = 0 must fail before anything is written
    out = target if target == "-" else str(tmp_path / target)
    args = ["preset", "fig1a", "--trials", "3", "--snr-db", "10"]
    assert main(args + ["--m-beams", "2", "--m-beams", "0", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert os.listdir(tmp_path) == []
    # so must an all_subsets scheme 2 block past the 8-beam limit
    args = ["preset", "fig2b", "--strategy", "all-subsets", "--trials", "1"]
    assert main(args + ["--m-beams", "2", "--m-beams", "9", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "all_subsets" in captured.err
    assert os.listdir(tmp_path) == []
    # and a curve named twice, which would write every row twice
    args = ["preset", "fig2b", "--snr-db", "10", "--trials", "5"]
    assert main(args + ["--m-beams", "2", "--m-beams", "2", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--m-beams" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("target", ["F.csv", "-"])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, target):
    # numpy's _ArrayMemoryError is a MemoryError; nothing real is allocated
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli_mod, "estimate", too_large)
    out = target if target == "-" else str(tmp_path / target)
    args = ["preset", "fig2a", "--trials", "5", "--m-beams", "100000", "--out", out]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "memory" in lines[0]
    assert os.listdir(tmp_path) == []


def test_interrupted_run_leaves_no_file(tmp_path, monkeypatch):
    # a run that dies after its first unit of work removes its temporary
    # file; units of one trial make the curves' 3 trials 3 units
    real = montecarlo._run_block
    calls = []

    def flaky(unit):
        if calls:
            assert len(os.listdir(tmp_path)) == 1  # the temporary file
            raise KeyboardInterrupt
        calls.append(unit)
        return real(unit)

    monkeypatch.setattr(montecarlo, "_run_block", flaky)
    monkeypatch.setattr(montecarlo, "_BUDGET", 1)
    monkeypatch.setattr(montecarlo, "_MIN_TRIALS", 1)
    out = tmp_path / "F.csv"
    with pytest.raises(KeyboardInterrupt):
        main(["preset", "fig1a", "--trials", "3", "--snr-db", "10", "--out", str(out)])
    assert os.listdir(tmp_path) == []


def test_output_follows_symlinks_and_writes_pipes_in_place(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old")
    target.chmod(0o640)
    link.symlink_to(target)
    assert main(["sweep", "--config", cfg, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    expected = target.read_text()
    assert _rows(expected)
    # a pipe is written in place, not replaced by a regular file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["sweep", "--config", cfg, "--out", str(fifo)]) == 0
        assert os.read(fd, 1 << 16).decode() == expected
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "link.csv", "pipe", "target.csv"]


def test_output_in_read_only_directory_is_written_in_place(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out.csv"
    out.write_text("old")
    inode = out.stat().st_ino
    monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: False)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert out.stat().st_ino == inode
    assert _rows(out.read_text())


def test_preset_unknown_name():
    assert main(["preset", "figZZ", "--out", "-"]) == 2


def test_preset_smoke_fig1a(tmp_path):
    out = tmp_path / "fig1a.csv"
    code = main(
        ["preset", "fig1a", "--trials", "10", "--snr-db", "0:20:10", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("#")
    rows = _rows(text)
    assert len(rows) == 6  # 3 SNR points x {M=2, M=4}
    assert {r.split(",")[2] for r in rows} == {"2", "4"}
    assert all(r.split(",")[3] == "selection" for r in rows)


def test_preset_fig2b_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["preset", "fig2b", "--seed", "7", "--trials", "25", "--snr-db", "10:20:10"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_preset_fig2b_dominance_rows(tmp_path):
    out = tmp_path / "fig2b.csv"
    code = main(
        ["preset", "fig2b", "--trials", "60", "--snr-db", "10:30:10", "--out", str(out)]
    )
    assert code == 0
    rows = [r.split(",") for r in _rows(out.read_text())]
    table = {(r[0], r[2], r[3]): float(r[5]) for r in rows}
    for snr in ("10.0", "20.0", "30.0"):
        for m in ("2", "4"):
            assert table[(snr, m, "scheme2")] >= table[(snr, m, "selection")]


def test_preset_fig1b_fig2a_smoke(tmp_path):
    for name in ("fig1b", "fig2a"):
        out = tmp_path / f"{name}.csv"
        code = main(["preset", name, "--trials", "5", "--snr-db", "10", "--out", str(out)])
        assert code == 0
        rows = _rows(out.read_text())
        assert rows and all(r.split(",")[4] == "ergodic_rate" for r in rows)


def test_preset_fig1a_outage_nonincreasing_high_snr(tmp_path):
    # the no-floor trend shows through at Monte Carlo scale past 20 dB
    out = tmp_path / "fig1a.csv"
    code = main(
        ["preset", "fig1a", "--trials", "10000", "--seed", "2", "--snr-db",
         "20:40:10", "--out", str(out)]
    )
    assert code == 0
    rows = [r.split(",") for r in _rows(out.read_text())]
    for m in ("2", "4"):
        series = [(float(r[0]), float(r[5])) for r in rows if r[2] == m]
        values = [v for _, v in sorted(series)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_suite_names_are_the_validation_suites():
    from beamshare import validation

    assert cli_mod.SUITE_NAMES == tuple(validation.SUITES)


def test_validate_failure_exit_code(capsys, monkeypatch):
    from beamshare import validation
    from beamshare.validation import CheckResult

    monkeypatch.setitem(
        validation.SUITES, "zf", lambda seed: [CheckResult("zf.forced", False, "boom")]
    )
    assert main(["validate", "zf"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] zf.forced" in out


# the solver suite draws from seed + 3, so its largest seed is 2**64 - 4
@pytest.mark.parametrize("seed", ["-1", *(str(2 ** 64 - k) for k in (3, 2, 1))])
def test_validate_rejects_bad_seed(capsys, seed):
    assert main(["validate", "solver", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --seed")


def test_validate_zf_passes(capsys):
    assert main(["validate", "zf", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "[PASS] zf.stream_exact" in out


def test_validate_deterministic_report(capsys):
    assert main(["validate", "zf", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["validate", "zf", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_csv_header_schema():
    assert CSV_HEADER == "snr_db,n,m,scheme,metric,value,std_err,trials,seed,resamples"


def test_preset_hands_every_curve_to_one_estimate(tmp_path, monkeypatch):
    calls = []
    real = cli_mod.estimate

    def counted(specs, workers=1):
        calls.append([(s.n_antennas, s.m_beams) for s in specs])
        return real(specs, workers=workers)

    monkeypatch.setattr(cli_mod, "estimate", counted)
    out = tmp_path / "fig1a.csv"
    args = ["preset", "fig1a", "--trials", "5", "--snr-db", "10", "--out", str(out)]
    assert main(args + ["--m-beams", "2", "--m-beams", "3"]) == 0
    assert calls == [[(2, 2), (3, 3)]]
    assert [r.split(",")[2] for r in _rows(out.read_text())] == ["2", "3"]
