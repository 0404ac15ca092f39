"""Operator-swap and literal mutation testing of the lines of src/ changed since a git base.

    python tools/mutate.py BASE

Run it from the root of an xtwave checkout.  It copies the working tree (the
files git tracks or would track, with their uncommitted changes) into a
temporary directory, so the checkout itself is never edited.  For each
operator on a line of src/ that differs from the revision BASE (every line of
a src/ file git does not track yet counts as changed), found with `ast`, it
writes one mutant with that operator swapped (+ and -, * and /, // and %,
< and <=, > and >=, == and !=, `is` and `is not`, `and` and `or`, and the
same for augmented assignments), and for each int, float or bool literal on
such a line one with the literal changed (an int + 1, a float doubled, a
bool flipped).  It runs the Tier-1 suite on each mutant with -x and
restores the file.  A mutant is killed when the suite fails (or runs past
TIMEOUT seconds).  It prints every mutant with its source line and verdict,
then the kill count.  The exit status is 0 when the unmutated copy passes,
1 otherwise.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

SWAPS = {
    ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*", ast.FloorDiv: "%", ast.Mod: "//",
    ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
    ast.Is: "is not", ast.IsNot: "is", ast.And: "or", ast.Or: "and",
}
SYMBOLS = {
    ast.Add: r"\+", ast.Sub: "-", ast.Mult: r"\*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: r"\bis\b", ast.IsNot: r"\bis\s+not\b", ast.And: r"\band\b", ast.Or: r"\bor\b",
}
TIMEOUT = 600.0  # seconds per suite run
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the checkout
    line: int  # 1-based line of the operator
    start: int  # offsets of the operator in the file's text
    end: int
    old: str
    new: str


def changed_lines(base, root="."):
    """{path: set of 1-based line numbers} of the .py files under src/ whose
    lines differ between base and the working tree; all lines of the files
    git does not track yet."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=root, check=True, capture_output=True, text=True
        ).stdout

    lines, path = {}, None
    for row in git("diff", "--unified=0", "--no-color", base, "--", "src").splitlines():
        if row.startswith("+++ "):
            path = row[6:] if row.startswith("+++ b/") else None
        elif row.startswith("@@") and path and path.endswith(".py"):
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", row).groups()
            first, n = int(start), 1 if count is None else int(count)
            lines.setdefault(path, set()).update(range(first, first + n))
    for path in git("ls-files", "--others", "--exclude-standard", "--", "src").splitlines():
        if path.endswith(".py"):
            with open(os.path.join(root, path), encoding="utf-8") as f:
                lines[path] = set(range(1, len(f.read().splitlines()) + 1))
    return lines


def _operators(tree):
    """(operator type, suffix, operand before it, operand after it) of every
    operator in tree; the suffix is "=" for an augmented assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            # a % b with a string on the left formats, it does not divide
            if not (isinstance(node.op, ast.Mod) and isinstance(node.left, ast.Constant)):
                yield type(node.op), "", node.left, node.right
        elif isinstance(node, ast.AugAssign):
            yield type(node.op), "=", node.target, node.value
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                yield type(op), "", left, right
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                yield type(node.op), "", left, right


def _literal(value):
    """Source of the mutated literal value: an int + 1, a float doubled, a
    bool flipped; None for other constants and for floats that doubling
    leaves unchanged (0.0)."""
    if isinstance(value, bool):
        return repr(not value)
    if isinstance(value, int):
        return repr(value + 1)
    if isinstance(value, float) and 2 * value != value:
        return repr(2 * value)
    return None


def mutants(path, text, lines):
    """The mutants of the operators and literals of source text on the given lines."""
    starts = [0]
    for row in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(row))
    encoded = [row.encode() for row in text.splitlines(keepends=True)]

    def offset(line, col):  # ast columns count UTF-8 bytes
        return starts[line - 1] + len(encoded[line - 1][:col].decode())

    tree = ast.parse(text)
    found = []
    for node in ast.walk(tree):
        new = _literal(node.value) if isinstance(node, ast.Constant) else None
        if new is not None and node.lineno in lines:
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            found.append(Mutant(path, node.lineno, start, end, text[start:end], new))
    for op, suffix, left, right in _operators(tree):
        if op not in SWAPS:
            continue
        lo = offset(left.end_lineno, left.end_col_offset)
        hi = offset(right.lineno, right.col_offset)
        # between the operands: brackets, blanks, comments and the operator
        gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text[lo:hi])
        match = re.search(SYMBOLS[op] + suffix, gap)
        start, end = lo + match.start(), lo + match.end()
        line = text.count("\n", 0, start) + 1
        if line in lines:
            found.append(Mutant(path, line, start, end, text[start:end], SWAPS[op] + suffix))
    return sorted(found, key=lambda m: (m.line, m.start))


def copy_tree(root, dest):
    """Copy the files git tracks or would track under root into dest."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, names):
        source = os.path.join(root, name)
        if os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def run_tier1(workdir):
    """(passed, seconds) of the Tier-1 suite with -x in workdir."""
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *TIER1], cwd=workdir, env=env, timeout=TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.monotonic() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision the changed lines are taken from")
    base = ap.parse_args(argv).base

    found = []
    for path, lines in sorted(changed_lines(base).items()):
        with open(path, encoding="utf-8") as f:
            found += mutants(path, f.read(), lines)
    print(f"{len(found)} mutants on the lines of src/ changed since {base}")
    with tempfile.TemporaryDirectory(prefix="xtwave-mutate-") as workdir:
        copy_tree(".", workdir)
        passed, seconds = run_tier1(workdir)
        print(f"unmutated copy: {'passes' if passed else 'FAILS'} ({seconds:.1f} s)")
        if not passed:
            return 1
        survivors = []
        for m in found:
            target = os.path.join(workdir, m.path)
            with open(target, encoding="utf-8") as f:
                text = f.read()
            with open(target, "w", encoding="utf-8") as f:
                f.write(text[: m.start] + m.new + text[m.end :])
            try:
                passed, seconds = run_tier1(workdir)
            finally:
                with open(target, "w", encoding="utf-8") as f:
                    f.write(text)
            source = text.splitlines()[m.line - 1].strip()
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict:8} {m.path}:{m.line}: {m.old} -> {m.new} ({seconds:.1f} s)  {source}")
            if passed:
                survivors.append(m)
    print(f"killed {len(found) - len(survivors)} of {len(found)} mutants")
    for m in survivors:
        print(f"survivor {m.path}:{m.line}: {m.old} -> {m.new}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
