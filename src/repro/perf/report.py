"""Benchmark snapshot I/O, comparison, and the regression report.

A snapshot is a ``BENCH_<date>.json`` file::

    {
      "schema": "repro-bench/1",
      "created": "2026-08-05T12:34:56",
      "label": "post slotted-DES",
      "smoke": false,
      "python": "3.11.9",
      "source_loc": {"analysis": ..., "fabric": ..., ..., "total": ...},
      "results": {
        "des_micro": {"wall_s": ..., "events": ..., "events_per_sec": ...,
                      "meta": {...}},
        ...
      },
      "vs_baseline": {            # present when a previous snapshot exists
        "path": "BENCH_....json",
        "threshold": 0.85,
        "ratios": {
          "des_micro": {"events_per_sec": 1.71, "wall_speedup": 1.69},
          ...
        },
        "regressions": ["table3_shadow: wall_speedup 0.71 < 0.85"],
        "source_loc_delta": {"fabric": -294, "serve": -144, "total": -438}
      }
    }

``source_loc`` is the economy trend ROADMAP item 2 asks for: code
lines — physical lines holding at least one token that is neither a
comment nor part of a docstring — per top-level package of ``repro``.

Ratios are oriented so that **bigger is better** for both metrics:
``events_per_sec`` is current/previous throughput, ``wall_speedup`` is
previous/current wall time. A benchmark regresses when its primary
metric (throughput when counted, wall speedup otherwise) falls below
the threshold.
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

from ..util.texttable import render_table

__all__ = [
    "SCHEMA",
    "compare_benches",
    "find_previous",
    "load_bench",
    "render_report",
    "source_loc",
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
        raise ValueError(
            f"{path}: not a repro-bench snapshot "
            f"(schema={snap.get('schema')!r}, expected {SCHEMA!r})"
        )
    return snap


def find_previous(out_dir, exclude=None) -> Path | None:
    """Newest ``BENCH_*.json`` in ``out_dir``, preferring the dated
    snapshots over the committed pre-change baseline when both exist."""
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
    return max(candidates, key=lambda p: p.stat().st_mtime)


def compare_benches(current: dict, previous: dict,
                    threshold: float = 0.85) -> dict:
    """Ratio every shared benchmark; flag primary-metric regressions.

    Smoke snapshots run different sizes than full ones — comparing the
    two would report phantom regressions, so mismatched ``smoke`` flags
    yield an empty comparison with an explanatory note.
    """
    out: dict = {"threshold": threshold, "ratios": {}, "regressions": []}
    # lines of code do not depend on the run size: compared either way
    loc, prev_loc = current.get("source_loc"), previous.get("source_loc")
    if loc and prev_loc:
        out["source_loc_delta"] = {
            name: loc.get(name, 0) - prev_loc.get(name, 0)
            for name in sorted(set(loc) | set(prev_loc))
            if loc.get(name, 0) != prev_loc.get(name, 0)}
    if bool(current.get("smoke")) != bool(previous.get("smoke")):
        out["note"] = (
            "smoke/full snapshots are not comparable; no ratios computed"
        )
        return out
    for name, cur in current.get("results", {}).items():
        prev = previous.get("results", {}).get(name)
        if prev is None:
            continue
        entry: dict = {}
        if cur.get("events_per_sec") and prev.get("events_per_sec"):
            entry["events_per_sec"] = (
                cur["events_per_sec"] / prev["events_per_sec"])
        if cur.get("wall_s") and prev.get("wall_s"):
            entry["wall_speedup"] = prev["wall_s"] / cur["wall_s"]
        if not entry:
            continue
        out["ratios"][name] = entry
        primary = ("events_per_sec" if "events_per_sec" in entry
                   else "wall_speedup")
        if entry[primary] < threshold:
            out["regressions"].append(
                f"{name}: {primary} {entry[primary]:.2f} < {threshold:.2f}"
            )
    return out


def render_report(snapshot: dict) -> str:
    """Human-readable view of a snapshot and its baseline comparison."""
    rows = []
    comparison = snapshot.get("vs_baseline") or {}
    ratios = comparison.get("ratios", {})
    for name, res in snapshot.get("results", {}).items():
        ratio = ratios.get(name, {})
        rows.append([
            name,
            res.get("wall_s"),
            res.get("events"),
            res.get("events_per_sec"),
            ratio.get("events_per_sec"),
            ratio.get("wall_speedup"),
        ])
    headers = ["benchmark", "wall s", "events", "events/s",
               "x ev/s", "x wall"]
    title = "repro bench"
    if snapshot.get("label"):
        title += f" — {snapshot['label']}"
    if snapshot.get("smoke"):
        title += " (smoke)"
    lines = [render_table(headers, rows, title=title)]
    loc = snapshot.get("source_loc")
    if loc:
        delta = comparison.get("source_loc_delta")
        if delta is None:
            trend = "no previous count"
        elif not delta:
            trend = "unchanged"
        else:
            trend = ", ".join(f"{name} {change:+d}" for name, change
                              in delta.items() if name != "total")
            trend = f"{delta.get('total', 0):+d} vs previous: {trend}"
        lines.append(f"\nsource code lines: {loc['total']} ({trend})")
    if comparison:
        against = comparison.get("against", "")
        lines.append(f"\ncompared against: {against}")
        if comparison.get("note"):
            lines.append(f"note: {comparison['note']}")
        regressions = comparison.get("regressions", [])
        if regressions:
            lines.append("REGRESSIONS (threshold "
                         f"{comparison.get('threshold')}):")
            lines.extend(f"  {r}" for r in regressions)
        else:
            lines.append(
                f"no regressions at threshold {comparison.get('threshold')}")
    return "\n".join(lines)
