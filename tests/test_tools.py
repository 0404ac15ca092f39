import ast
import importlib.util
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SOURCE = """\
x = (a  # not a - here
     - b) * c
if a <= b and c is not None:
    y -= a // 2 % 3
z = a - b
s = "%d" % a
"""


def test_mutate_swaps_each_operator_on_the_given_lines():
    # the operator, not a symbol in a comment; no mutant on line 5, which is
    # not given, nor of the string formatting on line 6
    found = mutate.mutants("m.py", SOURCE, {1, 2, 3, 4, 6})
    assert [(m.line, m.old, m.new) for m in found] == [
        (2, "-", "+"),
        (2, "*", "/"),
        (3, "<=", "<"),
        (3, "and", "or"),
        (3, "is not", "is"),
        (4, "-=", "+="),
        (4, "//", "%"),
        (4, "2", "3"),
        (4, "%", "//"),
        (4, "3", "4"),
    ]
    for m in found:
        mutated = SOURCE[: m.start] + m.new + SOURCE[m.end :]
        assert mutated.splitlines()[m.line - 1] != SOURCE.splitlines()[m.line - 1]
        ast.parse(mutated)


LITERALS = """\
def f(d=0, extra=3, flag=True):
    return 2 * d + 0.5 + 0.0 - 1e-14, "text", None, b"1", 0x10
"""


def test_mutate_changes_each_literal_on_the_given_lines():
    # an int + 1, a float doubled, a bool flipped; no mutant of 0.0, which
    # doubling leaves unchanged, nor of strings, bytes or None
    found = mutate.mutants("m.py", LITERALS, {1, 2})
    literals = [m for m in found if m.old not in ("*", "+", "-")]
    assert [(m.line, m.old, m.new) for m in literals] == [
        (1, "0", "1"),
        (1, "3", "4"),
        (1, "True", "False"),
        (2, "2", "3"),
        (2, "0.5", "1.0"),
        (2, "1e-14", "2e-14"),
        (2, "0x10", "17"),
    ]
    assert {m.line for m in mutate.mutants("m.py", LITERALS, {2})} == {2}
    for m in literals:
        assert ast.literal_eval(m.new) != ast.literal_eval(m.old)
        ast.parse(LITERALS[: m.start] + m.new + LITERALS[m.end :])


def test_changed_lines_counts_every_line_of_untracked_sources(tmp_path):
    def git(*args):
        config = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        subprocess.run(["git", *config, *args], cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 3\n")
    (tmp_path / "src" / "b.py").write_text("z = 1\nw = 2\n")
    (tmp_path / "src" / "notes.txt").write_text("not python\n")
    assert mutate.changed_lines("HEAD", tmp_path) == {"src/a.py": {2}, "src/b.py": {1, 2}}
