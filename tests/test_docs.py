"""The documentation's code runs and prints what the documentation says."""

import doctest
import os
import re
import subprocess
import sys

import pytest

import confalg.scalars

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
    README = f.read()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def run(code):
    """The standard output of code run in a fresh interpreter on src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("block", BLOCKS,
                         ids=["block%d" % n for n in range(len(BLOCKS))])
def test_readme_python_blocks_run(block):
    run(block)


def test_quick_start_prints_what_the_readme_states():
    quick_start = BLOCKS[0]
    # `print(...)  # shown` lines state their output; the loop states how
    # many cocycles it prints
    stated = re.findall(r"^print\(.*\)\s+# (.+)$", quick_start, re.M)
    count = int(re.search(r"# (\d+) independent cocycles",
                          quick_start).group(1))
    assert stated == ["(d + 2 l) L", "True"] and count == 4
    lines = run(quick_start).splitlines()
    assert lines[:len(stated)] == stated
    assert len(lines) == len(stated) + count
    assert all(line.startswith("alpha_") for line in lines[len(stated):])


def test_scalars_doctest():
    result = doctest.testmod(confalg.scalars)
    assert result.attempted > 0 and result.failed == 0
