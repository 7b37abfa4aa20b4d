"""Code lines per top-level package of ``repro``.

A code line is a physical line holding at least one token that is
neither a comment nor part of a module, class or function docstring.
Blank lines, comments and docstrings are prose; a string that is data
counts. :func:`source_loc` is what the project's change log quotes for
the code a change adds or removes: it depends on the tree alone, never
on the host.
"""

from __future__ import annotations

import ast
import functools
import io
import tokenize
from pathlib import Path

__all__ = ["source_loc"]


_NOT_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER})


def _code_lines(source: str) -> int:
    """Lines of ``source`` that hold code: not blank, not a comment,
    not (part of) a module/class/function docstring."""
    docstrings: set = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno,
                                        first.end_lineno + 1))
    lines: set = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def source_loc() -> dict:
    """Code lines per top-level package of ``repro``, plus ``total``."""
    return dict(_count_source())


@functools.lru_cache(maxsize=1)
def _count_source() -> dict:
    # the tree does not change under a running process: parse it once
    root = Path(__file__).resolve().parents[1]
    out: dict = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "(top level)"
        out[package] = out.get(package, 0) + _code_lines(path.read_text())
    out["total"] = sum(out.values())
    return out

