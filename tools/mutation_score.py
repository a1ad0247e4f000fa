"""Score a set of tests against sampled one-site mutants of one module.

    python tools/mutation_score.py [--sample N] [--function NAME]... MODULE TESTS...

for example

    python tools/mutation_score.py src/flowctl/simcore.py \\
        tests/test_simcore.py tests/test_simcore_differential.py \\
        tests/test_spawn_schedule_differential.py tests/test_golden.py

A site is one node inside one of the module's functions or methods: a
comparison operator, an arithmetic operator (in an expression or an
augmented assignment), a boolean `and`/`or`, or a numeric constant.
Nodes inside f-strings, which only shape messages, are left out.  From
every site (or from those in the functions named by `--function`) the
script draws `--sample` of them with the fixed seed `SEED` (`--sample 0`
takes them all).  Each mutant breaks one site: `<` and `<=` trade
places, as do `>` and `>=`, `==` and `!=`, `in` and `not in`, `is` and
`is not`; `+` and `-`, `*` and `/`, `and` and `or` swap; `//` becomes
`*`, `%` becomes `//`; a number gains 1.  The module is written back
with `ast.unparse`.

The tests run as `python -m pytest -q -x -p no:cacheprovider TESTS` from a
full copy of the repository in a temporary directory, with no bytecode
written, so the copy's own `src/` is the one imported (pytest's
`pythonpath = ["src"]` would otherwise put an unmutated tree first) and a
mutant of the same size and second never meets a stale `.pyc`.  The
unmutated module, also written back with `ast.unparse`, must pass first.
Mutants run one at a time, each under a timeout of five times that first
run plus 30 s; a mutant the tests fail, or one that times out, is killed.
Nothing is written inside the repository.  SIGTERM or SIGINT kills the
running pytest's process group and exits, removing the copy.

Prints one line per mutant (function, line, change, outcome), then
"K of N killed".  Exits 0, or 1 if the tests fail on the unmutated module.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                     ".hypothesis", "out", "runs")

COMPARE_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
                ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
BINOP_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
              ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv}
BOOL_SWAP = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
          ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
          ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.And: "and",
          ast.Or: "or"}


def operator_indexes(node: ast.AST) -> list[int]:
    """The sites one node holds: an index per swappable operator of a
    comparison chain, [0] for any other mutable node, [] otherwise."""
    if isinstance(node, ast.Compare):
        return [i for i, op in enumerate(node.ops) if type(op) in COMPARE_SWAP]
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return [0] if type(node.op) in BINOP_SWAP else []
    if isinstance(node, ast.BoolOp) or (
            isinstance(node, ast.Constant) and type(node.value) in (int, float)):
        return [0]
    return []


def sites(tree: ast.Module) -> list[tuple[str, ast.AST, int]]:
    """Every site inside a function, as (function qualname, node, operator
    index), in a fixed walk order."""
    found = []

    def visit(node, qualname, in_function):
        if isinstance(node, ast.JoinedStr):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
            in_function = in_function or not isinstance(node, ast.ClassDef)
            children = node.body  # decorators, defaults and annotations are left out
        else:
            children = ast.iter_child_nodes(node)
            if in_function:
                found.extend((qualname, node, i) for i in operator_indexes(node))
        for child in children:
            visit(child, qualname, in_function)

    visit(tree, "", False)
    return found


def mutate(node: ast.AST, index: int) -> str:
    """Break the site in place and describe the change."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[index])
        node.ops[index] = COMPARE_SWAP[old]()
        return f"{SYMBOL[old]} -> {SYMBOL[COMPARE_SWAP[old]]}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        old = type(node.op)
        node.op = BINOP_SWAP[old]()
        return f"{SYMBOL[old]} -> {SYMBOL[BINOP_SWAP[old]]}"
    if isinstance(node, ast.BoolOp):
        old = type(node.op)
        node.op = BOOL_SWAP[old]()
        return f"{SYMBOL[old]} -> {SYMBOL[BOOL_SWAP[old]]}"
    old_value = node.value
    node.value = old_value + 1
    return f"{old_value!r} -> {node.value!r}"


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        # Reached on a timeout and on the SystemExit of a stop signal: the
        # child runs in its own session, so no signal sent to us reaches it.
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def leave(signum, frame):
    """Exit through SystemExit, so that every `finally` and `with` block
    on the way out runs."""
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Score tests against sampled one-site mutants of a module.")
    parser.add_argument("--sample", type=int, default=40,
                        help="mutants to draw; 0 takes every site")
    parser.add_argument("--function", action="append", default=[],
                        help="draw only from this function (its qualified name)")
    parser.add_argument("module", help="path of the module, e.g. src/flowctl/simcore.py")
    parser.add_argument("tests", nargs="+", help="test files or node ids, as pytest takes them")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text()
    every = sites(ast.parse(source))
    candidates = [i for i, (qualname, _, _) in enumerate(every)
                  if not args.function or qualname in args.function]
    if not candidates:
        parser.error(f"no mutable site in {module} for {args.function or 'any function'}")
    chosen = candidates
    if args.sample:
        chosen = random.Random(SEED).sample(candidates, min(args.sample, len(candidates)))
    chosen.sort(key=lambda i: (every[i][1].lineno, i))

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, leave)
    with tempfile.TemporaryDirectory(prefix="mutation_score.") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        target = copy / module
        target.write_text(ast.unparse(ast.parse(source)))
        start = time.monotonic()
        if run_tests(copy, args.tests, None) != "passed":
            print(f"the tests fail on the unmutated {module}; nothing to score")
            return 1
        timeout = 5 * (time.monotonic() - start) + 30
        killed = 0
        for index in chosen:
            tree = ast.parse(source)
            qualname, node, op_index = sites(tree)[index]
            change = mutate(node, op_index)
            target.write_text(ast.unparse(tree))
            outcome = run_tests(copy, args.tests, timeout)
            killed += outcome != "passed"
            label = {"passed": "SURVIVED", "failed": "killed",
                     "timeout": "killed (timeout)"}[outcome]
            print(f"{qualname}:{node.lineno}  {change}  {label}", flush=True)
    print(f"{killed} of {len(chosen)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
