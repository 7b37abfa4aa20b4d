"""Smoke-bench snapshot I/O and the ``source_loc`` ledger.

A snapshot is a ``BENCH_<date>.json`` file::

    {
      "schema": "repro-bench/1",
      "created": "2026-08-05T12:34:56",
      "label": "post slotted-DES",
      "smoke": false,
      "python": "3.11.9",
      "source_loc": {"analysis": ..., "fabric": ..., ..., "total": ...},
      "results": {
        "table3_shadow": {"wall_s": ..., "events": ...,
                          "events_per_sec": ..., "meta": {...}},
        ...
      },
      "vs_baseline": {            # present when a previous snapshot exists
        "against": "benchmarks/out/BENCH_....json",
        "source_loc_delta": {"fabric": -294, "serve": -144, "total": -438}
      }
    }

``source_loc`` is the economy trend the ROADMAP asks for: code lines —
physical lines holding at least one token that is neither a comment nor
part of a docstring — per top-level package of ``repro``, and
``source_loc_delta`` is its change since the previous snapshot (smoke
or full: lines of code do not depend on the run size).

Timings are recorded, never compared: two snapshots taken on different
days differ by the host's speed, not the code's. "Did it get faster?"
is answered by ``bench/compare.py`` over interleaved runs. A snapshot
without ``source_loc`` has nothing the trend can use, and
:func:`load_bench` rejects it.
"""

from __future__ import annotations

import ast
import functools
import io
import json
import platform
import time
import tokenize
from pathlib import Path

from ..errors import BenchSnapshotError
from ..util.texttable import render_table

__all__ = [
    "SCHEMA",
    "find_previous",
    "load_bench",
    "make_snapshot",
    "render_report",
    "source_loc",
    "source_loc_delta",
    "write_bench",
]

SCHEMA = "repro-bench/1"


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


def make_snapshot(results: dict, label: str = "", smoke: bool = False) -> dict:
    return {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "label": label,
        "smoke": smoke,
        "python": platform.python_version(),
        "source_loc": source_loc(),
        "results": results,
    }


def write_bench(snapshot: dict, out_dir, date: str | None = None) -> Path:
    """Write ``BENCH_<date>.json`` under ``out_dir`` (created if needed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    date = date or time.strftime("%Y-%m-%d")
    path = out / f"BENCH_{date}.json"
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return path


def load_bench(path) -> dict:
    snap = json.loads(Path(path).read_text())
    if snap.get("schema") != SCHEMA:
        raise BenchSnapshotError(
            f"{path}: not a repro-bench snapshot "
            f"(schema={snap.get('schema')!r}, expected {SCHEMA!r})"
        )
    if not snap.get("source_loc"):
        raise BenchSnapshotError(
            f"{path}: snapshot has no source_loc count to take the "
            f"code-line trend against")
    return snap


def find_previous(out_dir, exclude=None) -> Path | None:
    """Newest ``BENCH_*.json`` in ``out_dir``: by modification time,
    then by name — a fresh checkout gives every committed snapshot the
    same mtime, and the names sort by date."""
    out = Path(out_dir)
    if not out.is_dir():
        return None
    exclude = Path(exclude).resolve() if exclude is not None else None
    candidates = [
        p for p in out.glob("BENCH_*.json")
        if exclude is None or p.resolve() != exclude
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda p: (p.stat().st_mtime, p.name))


def source_loc_delta(current: dict, previous: dict) -> dict:
    """Per-package change in code lines from ``previous`` to
    ``current`` (unchanged packages omitted)."""
    loc, prev_loc = current["source_loc"], previous["source_loc"]
    return {
        name: loc.get(name, 0) - prev_loc.get(name, 0)
        for name in sorted(set(loc) | set(prev_loc))
        if loc.get(name, 0) != prev_loc.get(name, 0)}


def render_report(snapshot: dict) -> str:
    """Human-readable view of a snapshot and its code-line trend."""
    rows = [
        [name, res.get("wall_s"), res.get("events"),
         res.get("events_per_sec")]
        for name, res in snapshot.get("results", {}).items()]
    title = "repro bench"
    if snapshot.get("label"):
        title += f" — {snapshot['label']}"
    if snapshot.get("smoke"):
        title += " (smoke)"
    lines = [render_table(["benchmark", "wall s", "events", "events/s"],
                          rows, title=title)]
    baseline = snapshot.get("vs_baseline") or {}
    loc = snapshot.get("source_loc")
    if loc:
        delta = baseline.get("source_loc_delta")
        if delta is None:
            trend = "no previous snapshot"
        elif not delta:
            trend = "unchanged"
        else:
            trend = ", ".join(f"{name} {change:+d}" for name, change
                              in delta.items() if name != "total")
            trend = f"{delta.get('total', 0):+d} vs previous: {trend}"
        lines.append(f"\nsource code lines: {loc['total']} ({trend})")
    if baseline:
        lines.append(f"previous snapshot: {baseline.get('against', '')}")
    return "\n".join(lines)
