#!/usr/bin/env python3
"""List the functions of `src/sccdso/` that no shipped run calls.

Runs, in this process under a `sys.setprofile` hook and into a temporary
directory: `sccdso run` on the three shipped configs (the default one with
`--reps 1` and all five schedulers), `sccdso validate` on each of them, and
`sccdso oracle --seeds 20`. Then prints each function or method defined in
`src/sccdso/` whose code was never entered, with its line count, and the
totals. A listed function may still be reached by an error or an option
path, a test or a script. The list never makes the exit status nonzero.

Usage:
    python scripts/reach.py
"""

import ast
import contextlib
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PKG = os.path.join(ROOT, "src", "sccdso")
sys.path.insert(0, os.path.join(ROOT, "src"))

from sccdso.cli import main as cli  # noqa: E402

CONFIGS = ("experiment_default", "experiment_deep_queue", "experiment_jobs")


def defined() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line of its code) -> (qualified name, lines) for every
    function in the package; a decorated function's code starts at its
    first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    out[path, first] = (name, child.end_lineno - child.lineno + 1)
                walk(child, path, name + ".")

    for fname in sorted(os.listdir(PKG)):
        if fname.endswith(".py"):
            path = os.path.realpath(os.path.join(PKG, fname))
            with open(path, encoding="utf-8") as fh:
                walk(ast.parse(fh.read()), path, "")
    return out


def main() -> int:
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((os.path.realpath(frame.f_code.co_filename), frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        runs = []
        for name in CONFIGS:
            config = os.path.join(ROOT, "configs", f"{name}.json")
            extra = ["--reps", "1", "--schedulers", "scc-dso,scc-dso-lite,rf-fd,rsync,rr"]
            runs.append(["validate", "--config", config])
            runs.append(["run", "--config", config, "--out", os.path.join(tmp, name)]
                        + (extra if name == "experiment_default" else []))
        runs.append(["oracle", "--seeds", "20"])
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sys.setprofile(hook)
            try:
                codes = [cli(argv) for argv in runs]
            finally:
                sys.setprofile(None)
    for argv, code in zip(runs, codes):
        if code:
            print(f"sccdso {argv[0]} exited {code}")

    unreached = [(path, line, *what) for (path, line), what in defined().items()
                 if (path, line) not in entered]
    for path, line, name, lines in sorted(unreached):
        print(f"{os.path.basename(path)}:{line} {name} {lines}")
    print(f"{len(unreached)} functions, {sum(u[3] for u in unreached)} lines never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
