"""SHA-256 of whole CSV outputs, metadata included.  The first seven were
recorded before trials were drawn once per SNR grid in zero-forced blocks;
the primary_min_rate, ergodic_rate_unconditioned and N = 6, M = 3 runs were
recorded before selection and scheme 1 were scored as arrays.  Any change to
a float operation on the trial path, to the stream layout or to the CSV
format changes a hash; a change meant to do that must re-record them and
say why.
"""

import hashlib
import json

import pytest

from beamshare.cli import main

DENSE_M8 = dict(
    n_antennas=8,
    m_beams=8,
    snr_db=[0, 5, 10, 15, 20, 25, 30, 35, 40],
    r_p_bpcu=0.1,
    r_s_bpcu=1.0,
    trials=10,
    seed=0,
    schemes=["scheme2"],
    metric="ergodic_rate",
    candidate_strategy="all_subsets",
)

SWEEP_N6_M3 = dict(
    n_antennas=6,
    m_beams=3,
    snr_db=[-10, -5, 0, 5, 10, 20],
    r_p_bpcu=0.1,
    r_s_bpcu=1.0,
    trials=200,
    seed=3,
    schemes=["selection", "scheme1", "scheme2"],
    metric="outage",
)

PRESET = ["--trials", "200", "--seed", "3"]
FIG2B = "56e94e3a294eb9da9d977870153b201132b260fc798a01032b99b6bc8727e1cd"
RUNS = {
    "fig1a": (
        ["preset", "fig1a", *PRESET],
        "81f899a79bb4ad8bf9618664206f4ad85b155244db222fcbdd499eb1674adead",
    ),
    "fig1b": (
        ["preset", "fig1b", *PRESET],
        "7008c60cb2fc756e314b8cfc381e046d806924ff8610cb69d20e37ce28ba3ba9",
    ),
    "fig2a": (
        ["preset", "fig2a", *PRESET],
        "bd8cf346c7a386a450e4bbe398a48d0c755fc38d7d8f8dfc1bbebf93571409ca",
    ),
    "fig2b": (["preset", "fig2b", *PRESET], FIG2B),
    # one pool for both N = M curves gives the workers-1 bytes
    "fig2b-workers-2": (["preset", "fig2b", *PRESET, "--workers", "2"], FIG2B),
    "fig2a-outage-m2-m4-m8": (
        ["preset", "fig2a", "--metric", "outage", "--m-beams", "2", "--m-beams", "4",
         "--m-beams", "8", *PRESET],
        "312695d95f57b8265ae6e9723e08a2817c4e308032acc230dc4636e9ae98067c",
    ),
    "fig2a-primary-min-rate": (
        ["preset", "fig2a", "--metric", "primary_min_rate", *PRESET],
        "160557c9af75eb048b31d2580ba793b600193f1ebce5a1b731df152e979caa9c",
    ),
    "fig2b-primary-min-rate": (
        ["preset", "fig2b", "--metric", "primary_min_rate", *PRESET],
        "bc90c08b6cc350f709087f4fe9a6dabcad04b06fdc0b53886d961055ebc2f953",
    ),
    "fig1b-ergodic-rate-unconditioned": (
        ["preset", "fig1b", "--metric", "ergodic_rate_unconditioned", *PRESET],
        "23383f9d9b58901876c8a04f43ad8349886cc6e3144c8c640f9e9ce246ce23fb",
    ),
    "sweep-n6-m3-all-schemes-outage": (
        ["sweep", "--config", "n6m3.json", *PRESET],
        "f70c20b9ff16a423e6a8157668fef4b25615f5d3b5bee412ba6775a6b68a2e1f",
    ),
    "dense_m8": (
        ["sweep", "--config", "dense_m8.json", "--trials", "20"],
        "f30ab1a36328ae19711267a0e270ee7b867231f99664e71b09139f7143722b95",
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_csv_bytes_match_the_recorded_hash(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sweep's metadata names its config path
    (tmp_path / "dense_m8.json").write_text(json.dumps(DENSE_M8))
    (tmp_path / "n6m3.json").write_text(json.dumps(SWEEP_N6_M3))
    argv, digest = RUNS[name]
    assert main([*argv, "--out", "out.csv"]) == 0
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest
