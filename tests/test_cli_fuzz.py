"""The CLI on mutated corpus files: never a traceback.

Each example applies one to three character edits (replace, delete or
insert, drawn from the text format's own alphabet) to a bundled corpus
file and runs four commands on the result with --format machine.  Every
run must end in exit 0, 1 or 2: a usage error prints only an `error: `
line on stderr, a verdict prints JSON whose `passed` matches the exit
code.  A mutated file that still parses must round-trip through
canonical_text; one that does not gives a parse error naming its line.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from importlib import resources

from hypothesis import given, settings, strategies as st

from confalg.cli import main
from confalg.dsl import DslError, parse

CORPUS = sorted(p.name for p in (resources.files("confalg") / "corpus")
                .iterdir() if p.name.endswith(".alg"))
ALPHABET = "abdlxLW{}();=+-*/^,0123456789 \n#>_"
COMMANDS = [["verify-conformal"], ["check-structure", "--which", "t"],
            ["central-ext", "--case", "anl"],
            ["coeff", "--grid", "-1..1", "--verify"]]

edits = st.lists(st.tuples(st.sampled_from(("replace", "delete", "insert")),
                           st.integers(min_value=0),
                           st.sampled_from(ALPHABET)),
                 min_size=1, max_size=3)


def mutate(text, steps):
    for how, at, ch in steps:
        if how == "insert":
            at %= len(text) + 1
            text = text[:at] + ch + text[at:]
        elif text:
            at %= len(text)
            text = text[:at] + (ch if how == "replace" else "") + text[at + 1:]
    return text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.sampled_from(CORPUS), edits)
@settings(deadline=None)
def test_mutated_corpus_files_give_a_verdict_or_a_usage_error(name, steps):
    text = mutate((resources.files("confalg") / "corpus" / name).read_text(),
                  steps)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        for command in COMMANDS:
            argv = command[:1] + [path] + command[1:] + ["--format", "machine"]
            code, out, err = run(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out == "" and err.startswith("error: "), argv
            else:
                assert json.loads(out)["passed"] == (code == 0), argv
    try:
        af = parse(text)
    except DslError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
        return
    again = parse(af.canonical_text())
    assert again == af
    assert again.canonical_text() == af.canonical_text()
