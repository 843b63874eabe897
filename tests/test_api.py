import re
from pathlib import Path

import beamshare

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_api():
    assert sorted(beamshare.__all__) == sorted(
        [
            "SystemConfig",
            "TrialSeed",
            "realize",
            "evaluate_selection",
            "evaluate_scheme1",
            "evaluate_scheme2",
            "SweepSpec",
            "estimate",
            "__version__",
        ]
    )
    for name in beamshare.__all__:
        assert hasattr(beamshare, name)


def test_block_passes_are_public():
    # each scheme's array pass over a block of cells, next to its cell of one
    from beamshare import beam_aggregation, beam_selection

    assert {"evaluate_scheme1_block", "evaluate_scheme2_block"} <= set(
        beam_aggregation.__all__
    )
    assert "evaluate_selection_block" in beam_selection.__all__
    for module in (beam_aggregation, beam_selection):
        for name in module.__all__:
            assert hasattr(module, name)


def test_readme_library_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
