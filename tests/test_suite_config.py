"""The suite's own pytest settings."""

pytest_plugins = ["pytester"]

PROPERTY_THEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
"""


def test_a_failing_property_leaves_later_tests_running(pytester, pytestconfig):
    # On a failure Hypothesis imports libcst, which raises a
    # DeprecationWarning; under the suite's error::DeprecationWarning that
    # aborted the session with INTERNALERROR before the next test ran. Run
    # in a fresh interpreter, since the warning comes only on first import.
    filters = "".join(f"\n    {f}" for f in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(PROPERTY_THEN_TEST)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
