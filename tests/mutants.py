"""Mutation survey: which one-site changes to a module does the suite miss?

Each mutant changes one site of the module and nothing else:

* ``compare``: a comparison operator, ``<``/``<=``, ``>``/``>=``,
  ``==``/``!=``, ``is``/``is not`` and ``in``/``not in`` each into the
  other;
* ``arith``: a binary or augmented ``+``/``-`` and ``*``/``/`` each into
  the other;
* ``bool``: ``and``/``or`` each into the other;
* ``const``: an int constant 0, 1 or 2 into one more (so ``-1`` becomes
  ``-2``).

The runner copies the repository once, then for each mutant writes the
mutated module into the copy and runs the test command there; a failing
run kills the mutant. A mutant that survives and is listed in
``EQUIVALENT`` with its reason is equivalent: no test can tell it from
the original. The exit status is 1 if any other mutant survives.

Run it from the root of a checkout (pytest does not collect this file)::

    python tests/mutants.py src/fusedec/vocab.py
    python tests/mutants.py src/fusedec/vocab.py --ops compare,const --root ../other-checkout

The default test command is the tier-1 suite with ``-x``, run with
``src`` on ``PYTHONPATH`` and the hypothesis example database cleared
before each run. Each run may use at most ``MEMORY_LIMIT`` bytes of
address space, so a mutant that loops appending fails instead of filling
the machine's memory. One module takes about ten minutes on two cores.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

OPERATORS = ("compare", "arith", "bool", "const")
MEMORY_LIMIT = 1 << 30  # the unmutated suite also passes under a 768 MiB cap
DEFAULT_COMMAND = (f"{shlex.quote(sys.executable)} -m pytest -q -x -p no:cacheprovider"
                   " --continue-on-collection-errors")

# "<file>:<line>:<column> <original> -> <mutant>", as the survey prints it,
# each with why no test can tell the mutant from the original
EQUIVALENT = {
    "vocab.py:103:36 0 -> 1": "the empty record's depth is never read: it has no members",
    "vocab.py:252:14 < -> <=": "at pos == n the inner walk finds no byte and the loop breaks either way",
    "vocab.py:394:79 <= -> <": "a subset test of a two-character string against the hex digits: no"
                               " two-element set equals all 22 of them",
}


@dataclass(frozen=True)
class Mutant:
    offset: int  # of the changed text in the module's source
    line: int  # 1-based
    col: int  # 0-based character column in that line
    old: str
    new: str

    def label(self, name: str) -> str:
        return f"{name}:{self.line}:{self.col} {self.old} -> {self.new}"


_OLD = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or",
}
_NEW = {
    ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
    ast.Is: "is not", ast.IsNot: "is", ast.In: "not in", ast.NotIn: "in",
    ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*", ast.And: "or", ast.Or: "and",
}


def find_mutants(source: str, operators=OPERATORS) -> list[Mutant]:
    lines = source.splitlines(keepends=True)
    line_starts = [0]
    for text in lines:
        line_starts.append(line_starts[-1] + len(text))

    def offset(line, byte_col):  # ast columns count UTF-8 bytes
        return line_starts[line - 1] + len(lines[line - 1].encode()[:byte_col].decode())

    def mutant(at, old, new):
        line = max(i for i, s in enumerate(line_starts) if s <= at) + 1
        return Mutant(at, line, at - line_starts[line - 1], old, new)

    def between(left, right, old, new):
        """The mutant of the operator ``old`` in the gap between two nodes,
        which holds nothing else but brackets and white space."""
        a = offset(left.end_lineno, left.end_col_offset)
        gap = source[a:offset(right.lineno, right.col_offset)]
        pattern = r"[\s()\\]*(" + r"\s+".join(map(re.escape, old.split())) + r")[\s()\\]*"
        match = re.fullmatch(pattern, gap)
        if match is None:
            raise ValueError(f"no lone {old!r} in {gap!r} at offset {a}")
        return mutant(a + match.start(1), match.group(1), new)

    found = []
    for node in ast.walk(ast.parse(source)):
        if "compare" in operators and isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                found.append(between(left, right, _OLD[type(op)], _NEW[type(op)]))
        elif ("arith" in operators and isinstance(node, (ast.BinOp, ast.AugAssign))
              and type(node.op) in (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            aug = "=" if isinstance(node, ast.AugAssign) else ""
            left, right = (node.target, node.value) if aug else (node.left, node.right)
            found.append(between(left, right, _OLD[type(node.op)] + aug, _NEW[type(node.op)] + aug))
        elif "bool" in operators and isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                found.append(between(left, right, _OLD[type(node.op)], _NEW[type(node.op)]))
        elif ("const" in operators and isinstance(node, ast.Constant)
              and type(node.value) is int and node.value in (0, 1, 2)):
            at = offset(node.lineno, node.col_offset)
            # a literal spelled another way, such as 0x00, is left as it is
            if source[at:offset(node.end_lineno, node.end_col_offset)] == str(node.value):
                found.append(mutant(at, str(node.value), str(node.value + 1)))
    return sorted(set(found), key=lambda m: m.offset)


def apply(source: str, mutant: Mutant) -> str:
    assert source.startswith(mutant.old, mutant.offset), mutant
    return source[:mutant.offset] + mutant.new + source[mutant.offset + len(mutant.old):]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(copy: Path, command: list[str], timeout: float) -> tuple[bool, float]:
    """(passed, seconds) of one run of ``command`` in ``copy``; a run
    that outlasts ``timeout`` or ``MEMORY_LIMIT`` fails."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
    began = time.monotonic()
    try:
        done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - began
    return done.returncode == 0, time.monotonic() - began


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module, relative to --root")
    parser.add_argument("--root", default=".", help="checkout to copy (default: .)")
    parser.add_argument("--ops", default=",".join(OPERATORS),
                        help=f"comma-separated operator set (default: {','.join(OPERATORS)})")
    parser.add_argument("--command", default=DEFAULT_COMMAND,
                        help=f"test command, run in the copy (default: {DEFAULT_COMMAND!r})")
    parser.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    args = parser.parse_args(argv)
    operators = args.ops.split(",")
    if not set(operators) <= set(OPERATORS):
        parser.error(f"--ops takes some of {', '.join(OPERATORS)}")
    root = Path(args.root).resolve()
    source = (root / args.module).read_text(encoding="utf-8")
    name = Path(args.module).name
    mutants = find_mutants(source, operators)
    if args.list:
        for mutant in mutants:
            print(mutant.label(name))
        return 0
    command = shlex.split(args.command)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__"))
        target = copy / args.module
        passed, seconds = run_tests(copy, command, timeout=3600)
        if not passed:
            print("the unmutated suite fails; nothing to survey", file=sys.stderr)
            return 2
        survivors, equivalent = [], []
        for i, mutant in enumerate(mutants, 1):
            target.write_text(apply(source, mutant), encoding="utf-8")
            label = mutant.label(name)
            if not run_tests(copy, command, timeout=10 * seconds + 60)[0]:
                verdict = "killed"
            elif label in EQUIVALENT:
                verdict = "equivalent"
                equivalent.append(label)
            else:
                verdict = "SURVIVED"
                survivors.append(label)
            print(f"[{i}/{len(mutants)}] {verdict:10} {label}", flush=True)
        target.write_text(source, encoding="utf-8")
    print(f"{name}: {len(mutants)} mutants, {len(survivors) + len(equivalent)} survived"
          f" ({len(equivalent)} listed as equivalent)")
    for label in survivors:
        print(f"  survivor: {label}")
    labels = {mutant.label(name) for mutant in mutants}
    for label in EQUIVALENT:
        if label.startswith(f"{name}:") and label not in labels:
            print(f"  stale EQUIVALENT entry, no such mutant: {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
