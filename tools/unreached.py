"""List the package's definitions that no command enters.

Run from anywhere, with no options:

    python3 tools/unreached.py > unreached.txt

It imports the ``src/`` of the checkout it lives in, runs 32 in-process
``statarb.cli.main`` calls under ``sys.setprofile``, and prints, in file
and line order, one ``module.qualname`` line for each function or method
defined in ``src/statarb`` that none of the calls entered:

- ``simulate`` for each strategy (``gfin`` included) x mode x alpha
  {0, 0.5, 1}, and once at a negative drift;
- ``sweep`` on each axis;
- ``backtest`` on both ``tests/data`` CSVs at alpha {0, 0.5, 1};
- ``check-model`` on both fixtures.

Simulations and sweeps run 50 runs of 200 steps, and every command that
takes ``--out`` writes it.  A call that fails stops the tool with its
output, since a failed call enters less code than the matrix should.  A
definition is matched by its file and first line; a decorated function's
code object starts at its first decorator.  Run it in a fresh process: an
``lru_cache``d function that an earlier call in the same process filled
is not entered.
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "statarb"
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "src"))

from statarb import cli  # noqa: E402
from statarb.lattice import KINDS, MODES  # noqa: E402

SMALL = ["--runs", "50", "--steps", "200"]
SWEEP_VALUES = {"c": "0.01,0.02", "c_mult": "0.01,0.02", "mu": "0.05,0.1",
                "sigma": "0.05,0.1", "eta": "1.0,1.5"}
ALPHAS = ("0", "0.5", "1")


def calls(out: Path) -> list[list[str]]:
    """The argument lists of the 32 CLI calls; every command that takes
    ``--out`` writes it to ``out``."""
    argvs = [["simulate", *SMALL, "--strategy", kind, "--mode", mode,
              "--alpha", alpha]
             for kind in (*KINDS, "gfin") for mode in MODES
             for alpha in ALPHAS]
    argvs.append(["simulate", *SMALL, "--mu", "-0.1241"])
    argvs += [["sweep", *SMALL, "--axis", axis, "--values", values]
              for axis, values in SWEEP_VALUES.items()]
    argvs += [["backtest", "--data", str(DATA / name), "--boundary", "0.02",
               "--alpha", alpha]
              for name in ("gbm_up.csv", "gbm_down.csv") for alpha in ALPHAS]
    argvs = [[*argv, "--out", str(out)] for argv in argvs]
    return argvs + [["check-model", name] for name in cli.FIXTURES]


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function and method
    under PACKAGE."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[str(path), first] = \
                        f"{module}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def entered() -> set[tuple[str, int]]:
    """(file, first line) of every code object the CLI calls entered."""
    seen = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        for argv in calls(Path(tmp) / "out.csv"):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                sys.setprofile(profile)
                try:
                    code = cli.main(argv)
                finally:
                    sys.setprofile(None)
            if code not in (0, 2):  # 2: check-model sec34 finds SaExists
                sys.exit(f"{argv} exited {code}:\n{sink.getvalue()}")
    return seen


def main() -> None:
    seen = entered()
    for key, name in definitions().items():
        if key not in seen:
            print(name)


if __name__ == "__main__":
    main()
