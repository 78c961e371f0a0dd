"""Shared pytest plumbing: the hypothesis profile "ci" and the
acceptance-criterion result registry.

test_acceptance.py records one entry per criterion; the terminal-summary
hook below prints one PASS/FAIL line for each at the end of the run, so a
plain `pytest -v` shows the per-criterion outcome.
"""

from hypothesis import settings

# a deeper fuzz for CI: python -m pytest ... --hypothesis-profile=ci
settings.register_profile("ci", max_examples=500)

ACCEPTANCE_RESULTS = {}


def record_acceptance(num, title, passed, note=""):
    ACCEPTANCE_RESULTS[num] = (title, bool(passed), note)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        title, passed, note = ACCEPTANCE_RESULTS[num]
        line = "criterion %2d: %s  %s" % (num, "PASS" if passed else "FAIL",
                                          title)
        if note:
            line += "  [%s]" % note
        terminalreporter.write_line(line)
