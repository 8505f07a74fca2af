"""Mutation audit of src/oscnet: apply one small change at a time and see
whether a pytest selection notices.

Each mutant changes one site of the chosen functions:

* swap + and -, * and /, < and <=, > and >=, == and != (augmented
  assignments included);
* add 1 to an int constant, or multiply a float constant by 1.001;
* drop a unary minus.

The repository (without .git) is copied to a temporary directory once; each
mutant is written into that copy's ``src/oscnet``, the selection runs there
with ``-x``, and the file is restored. The working tree is never edited. A
mutant is killed when the selection fails or times out, and survives when it
passes; the selection must pass unmutated first.

    python tools/mutate.py probes.moving_average cli.run_qnm -- tests/test_probes.py

A target is a module of src/oscnet (every site in it), or ``module.name``
with ``name`` a top-level function or class or ``Class.method``. Arguments
after ``--`` go to pytest as they are (``--deselect`` included). Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "oscnet"

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def _scope(tree: ast.Module, name: str | None) -> ast.AST:
    """The node whose sites a target covers: the module, or one dotted name."""
    if name is None:
        return tree
    body, node = tree.body, None
    for part in name.split("."):
        node = next(
            (n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part),
            None,
        )
        if node is None:
            raise SystemExit(f"no function or class {name!r}")
        body = node.body
    return node


def _bumped(value: int | float) -> int | float:
    return value + 1 if type(value) is int else value * 1.001


def sites(tree: ast.Module, name: str | None) -> list[tuple[ast.AST, int, str]]:
    """(node, operator index, description) of every mutable site in walk
    order; the same source always gives the same list."""
    found: list[tuple[ast.AST, int, str]] = []
    for node in ast.walk(_scope(tree, name)):
        # only BinOp and AugAssign carry an op that SWAPS holds
        ops = node.ops if isinstance(node, ast.Compare) else [getattr(node, "op", None)]
        for i, op in enumerate(ops):
            if type(op) in SWAPS:
                found.append((node, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"))
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            new = _bumped(node.value)
            if new != node.value:  # 0.0 * 1.001 is 0.0: no mutant
                found.append((node, 0, f"{node.value!r} -> {new!r}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append((node, 0, "drop unary -"))
    return found


class _DropMinus(ast.NodeTransformer):
    def __init__(self, target: ast.AST):
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        return node.operand if node is self.target else self.generic_visit(node)


def mutant(source: str, name: str | None, k: int) -> str:
    """The module source with site k of ``sites`` changed."""
    tree = ast.parse(source)
    node, i, _ = sites(tree, name)[k]
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value = _bumped(node.value)
    else:
        tree = _DropMinus(node).visit(tree)
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(copy_root: Path, pytest_args: list[str], timeout: float) -> tuple[bool, str]:
    """(passed, first failing test or 'timeout') of the selection in the copy."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy_root / "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    try:
        proc = subprocess.run(
            cmd, cwd=copy_root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False, "timeout"
    failed = [
        line.split(" ")[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return proc.returncode == 0, failed[0] if failed else f"exit {proc.returncode}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="module or module.name in src/oscnet")
    parser.add_argument("--list", action="store_true", help="list the sites and run nothing")
    args = parser.parse_args(argv[:cut])
    pytest_args = argv[cut + 1 :]

    plan = []  # (line, column, module file, target name, site index, description)
    for target in args.targets:
        module, _, name = target.partition(".")
        path = PACKAGE / f"{module}.py"
        if not (ROOT / path).is_file():
            raise SystemExit(f"no module {path}")
        tree = ast.parse((ROOT / path).read_text())
        found = [
            (node.lineno, node.col_offset, path, name or None, k, f"{target} {what}")
            for k, (node, _, what) in enumerate(sites(tree, name or None))
        ]
        plan += sorted(found, key=lambda site: site[:2])
    if args.list:
        for line, col, path, _, _, what in plan:
            print(f"{path.name}:{line}:{col} {what}")
        print(f"{len(plan)} sites")
        return 0

    with tempfile.TemporaryDirectory(prefix="oscnet-mutate-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(
            ROOT,
            root,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache", "oscnet-out", ".bench_*"
            ),
        )
        start = time.perf_counter()
        passed, first = run_tests(root, pytest_args, timeout=3600.0)
        baseline = time.perf_counter() - start
        if not passed:
            print(f"the selection fails unmutated ({first}); nothing to audit", file=sys.stderr)
            return 2
        timeout = max(60.0, 10.0 * baseline)
        killed = 0
        for line, col, path, name, k, what in plan:
            original = (root / path).read_text()
            (root / path).write_text(mutant(original, name, k))
            try:
                passed, first = run_tests(root, pytest_args, timeout)
            finally:
                (root / path).write_text(original)
            killed += not passed
            verdict = "SURVIVED" if passed else f"killed by {first}"
            print(f"{path.name}:{line}:{col} {what}: {verdict}", flush=True)
        print(f"{len(plan)} mutants: {killed} killed, {len(plan) - killed} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
