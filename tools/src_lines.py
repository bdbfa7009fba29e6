"""Count code, docstring, comment and blank lines per module of src/groupwalks.

    python3 tools/src_lines.py [REV]

A line is a docstring line when it lies in the docstring of a module, class
or function; otherwise a code line when it holds any token other than a
comment; otherwise blank or a comment line.  Given a git revision, the
script also prints that revision's counts and the change from it to the
working tree.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import subprocess
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "src/groupwalks"
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def classify(source: str) -> dict[str, int]:
    """Line counts of one module's source, by kind."""
    doc: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in doc:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        else:
            counts["blank" if not line.strip() else "comment"] += 1
    return counts


def working_tree() -> dict[str, dict[str, int]]:
    return {path.name: classify(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision(rev: str) -> dict[str, dict[str, int]]:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout

    names = sorted(n for n in git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
                   if n.endswith(".py"))
    return {pathlib.PurePosixPath(n).name: classify(git("show", f"{rev}:{n}")) for n in names}


def table(title: str, counts: dict[str, dict[str, int]], signed: bool = False) -> str:
    rows = dict(counts)
    rows["total"] = {k: sum(c[k] for c in counts.values()) for k in KINDS}
    fmt = "{:+d}" if signed else "{:d}"
    lines = [title, f"{'module':<16}" + "".join(f"{k:>11}" for k in (*KINDS, "total"))]
    for name, c in rows.items():
        cells = [c[k] for k in KINDS] + [sum(c.values())]
        lines.append(f"{name:<16}" + "".join(f"{fmt.format(v):>11}" for v in cells))
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare the working tree against")
    args = ap.parse_args()
    now = working_tree()
    print(table("working tree", now))
    if args.rev:
        then = revision(args.rev)
        zero = dict.fromkeys(KINDS, 0)
        change = {name: {k: now.get(name, zero)[k] - then.get(name, zero)[k] for k in KINDS}
                  for name in sorted(now.keys() | then.keys())}
        print()
        print(table(args.rev, then))
        print()
        print(table(f"change from {args.rev}", change, signed=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
