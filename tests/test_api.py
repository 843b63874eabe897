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


def test_readme_library_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
