#!/usr/bin/env python3
"""Count each module's lines by kind: docstring, comment, blank and code.

    python3 tools/src_lines.py [--json] [PATH ...]

A size goal counts code, not prose: deleting a comment or a docstring
leaves the program as it was. So for each ``.py`` file under each PATH
(default: this checkout's ``src/glpart``) this prints its total lines and
how many of them are docstring, comment, blank and code lines, then the
sums.

Each line is counted once, by the first rule that holds:
- docstring: inside the string that opens a module, class or function
  body (found with ``ast``), blank lines within it included;
- code: holds a token other than a comment, such as part of any other
  string, so a line with code and a trailing comment is code;
- comment: holds a comment (found with ``tokenize``) and nothing else;
- blank: the rest, lines of nothing but white space.

``--json`` prints one object, the counts keyed by file name and
``"total"``, in place of the table.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import sys
import tokenize

KINDS = ("total", "docstring", "comment", "blank", "code")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "glpart")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The line counts of one module's source ``text``, keyed by ``KINDS``."""
    total = len(text.splitlines())
    doc = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= doc | code
    return {
        "total": total,
        "docstring": len(doc),
        "comment": len(comment),
        "blank": total - len(doc) - len(code) - len(comment),
        "code": len(code),
    }


def count_paths(paths: list[str]) -> dict[str, dict[str, int]]:
    """Counts per ``.py`` file under ``paths``, by file name, then their sums
    under ``"total"``."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(os.path.join(path, f) for f in os.listdir(path)
                            if f.endswith(".py"))
        else:
            files.append(path)
    out = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            out[os.path.basename(path)] = count(fh.read())
    out["total"] = {kind: sum(c[kind] for c in out.values()) for kind in KINDS}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("paths", nargs="*", default=[SRC])
    parser.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args(argv)
    counts = count_paths(args.paths)
    if args.json:
        print(json.dumps(counts, indent=2))
        return 0
    print(f"{'module':<20}" + "".join(f"{kind:>10}" for kind in KINDS))
    for name, c in counts.items():
        print(f"{name:<20}" + "".join(f"{c[kind]:>10}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
