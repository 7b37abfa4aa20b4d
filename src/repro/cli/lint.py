"""``repro lint`` — static analysis of registered IR programs.

Exit codes (the contract CI drivers rely on):

``0``
    no errors (warnings are allowed unless ``--strict``); in
    ``--corpus`` mode, every known defect was caught.
``1``
    at least one error diagnostic (or warning with ``--strict``), or a
    corpus defect the analyses missed.
``2``
    usage: unknown program names, nothing to lint, a ``--g`` below 2,
    or an ``--mc-states`` below 1.

``--json`` replaces the human-readable listing with one JSON object::

    {"mode": "lint", "programs": [...],
     "diagnostics": [{"severity", "category", "program", "path",
                      "message"}, ...],
     "loops": {PROGRAM: {"loop": VAR, "dependences": [
         {"kind", "space", "var", "src", "dst", "carried",
          "distance", "direction", "exact", "reason"}, ...]}},
     "summary": {"programs", "errors", "warnings", "notes"},
     "exit_code": 0|1}

``loops`` appears only with ``--loop VAR`` and exposes the affine
engine's raw distance/direction vectors (``distance`` is null when
only the direction is known). Statement paths are JSON lists in the
:func:`repro.navp.ir.body_at` convention, with branch steps rendered
as ``[index, "then"|"else"]``. Corpus mode (``--corpus --json``)
instead reports ``{"mode": "corpus", "cases": [...], "caught",
"total", "exit_code"}``.

``--protocol-mc`` adds a ``protocol_mc`` object mapping each linted
*root* to its :meth:`ModelCheckResult.to_json` verdict: ``status``,
``deadlock_free``, ``max_mailbox_depth``/``window``/``bounded``,
state-space ``stats`` (states explored, POR ``reduction_factor``,
per-pass breakdown), and the concrete ``counterexample`` schedule when
one exists (replayable on SimFabric — see ``docs/analysis.md``).
"""

from __future__ import annotations

import json
import sys


def configure(sub) -> None:
    lint_p = sub.add_parser(
        "lint", help="statically analyze registered IR programs")
    lint_p.add_argument("programs", nargs="*",
                        help="program names to lint (after seeding the "
                             "paper programs); default with --all: "
                             "every registered program")
    lint_p.add_argument("--all", action="store_true", dest="lint_all",
                        help="lint every registered program")
    lint_p.add_argument("--g", type=int, default=3,
                        help="grid order used to seed the paper "
                             "programs (default 3)")
    lint_p.add_argument("--loop", default=None,
                        help="also run the loop dependence analysis "
                             "over this loop variable in each linted "
                             "program that has it")
    lint_p.add_argument("--corpus", action="store_true",
                        help="run the known-bad corpus instead and "
                             "check every defect is caught")
    lint_p.add_argument("--races", action="store_true",
                        help="also run the static data-race analysis "
                             "over every linted root program's "
                             "injection closure")
    lint_p.add_argument("--protocol-mc", action="store_true",
                        dest="protocol_mc",
                        help="also model-check every linted root "
                             "program's injection closure for "
                             "deadlock-freedom, bounded mailboxes, and "
                             "orphan signals (in --corpus mode the "
                             "liveness cases already run it)")
    lint_p.add_argument("--mc-states", type=int, default=200_000,
                        help="state cap per model-checking pass, the "
                             "only bound: no wall-clock deadline, so "
                             "the verdict is the same on every host "
                             "(default 200000)")
    lint_p.add_argument("--strict", action="store_true",
                        help="treat warnings as errors for the exit "
                             "status")
    lint_p.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable report on stdout "
                             "(see the repro.cli.lint docstring for "
                             "the schema)")
    lint_p.set_defaults(handler=_cmd_lint)


def _path_json(path: tuple) -> list:
    return [list(step) if isinstance(step, tuple) else step
            for step in path]


def _diag_json(diag) -> dict:
    return {
        "severity": diag.severity,
        "category": diag.category,
        "program": diag.program,
        "path": _path_json(diag.path),
        "message": diag.message,
    }


def _vector_json(dep) -> dict:
    out = {
        "kind": dep.kind,
        "space": dep.space,
        "var": dep.var,
        "src": _path_json(dep.src),
        "dst": _path_json(dep.dst),
        "carried": dep.carried,
        "detail": dep.detail,
    }
    if dep.vector is not None:
        out.update({
            "distance": dep.vector.distance,
            "direction": dep.vector.direction,
            "exact": dep.vector.exact,
            "reason": dep.vector.reason,
        })
    return out


def _cmd_corpus(args) -> int:
    from ..analysis.corpus import verify_corpus
    from ..viz.irprint import format_diagnostic

    results = verify_corpus()
    failures = sum(1 for _case, _report, hit in results if not hit)
    if args.as_json:
        print(json.dumps({
            "mode": "corpus",
            "cases": [
                {"name": case.name, "category": case.category,
                 "expect_clean": case.expect_clean,
                 "ok": hit,
                 "diagnostics": [_diag_json(d) for d in report]}
                for case, report, hit in results
            ],
            "ok": len(results) - failures,
            "total": len(results),
            "exit_code": 1 if failures else 0,
        }, indent=2, sort_keys=True))
        return 1 if failures else 0
    for case, report, hit in results:
        if case.expect_clean:
            status = "clean" if hit else "FALSE POSITIVE"
        else:
            status = "caught" if hit else "MISSED"
        print(f"{case.name} [{case.category}]: {status}")
        for diag in report:
            print(format_diagnostic(diag, registry=case.registry))
    print(f"\n{len(results) - failures}"
          f"/{len(results)} corpus checks passed")
    return 1 if failures else 0


def _cmd_lint(args) -> int:
    from ..analysis import lint as lint_mod
    from ..analysis.deps import analyze_loop, loop_diagnostics
    from ..analysis.diagnostics import DiagnosticReport
    from ..errors import AnalysisError
    from ..navp import ir
    from ..viz.irprint import format_diagnostic

    if args.mc_states < 1:
        print(f"--mc-states must be at least 1, got {args.mc_states}",
              file=sys.stderr)
        return 2
    if args.g < 2:
        print(f"--g must be at least 2, got {args.g}", file=sys.stderr)
        return 2
    if args.corpus:
        return _cmd_corpus(args)

    layouts, contexts = lint_mod.seed_paper_programs(args.g)
    if args.lint_all:
        names = sorted(ir.REGISTRY)
    elif args.programs:
        unknown = [n for n in args.programs if n not in ir.REGISTRY]
        if unknown:
            print(f"unknown program(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        names = args.programs
    else:
        print("nothing to lint: name programs or pass --all "
              "(registered programs: "
              f"{', '.join(sorted(ir.REGISTRY))})", file=sys.stderr)
        return 2

    injected = lint_mod._injected_names(ir.REGISTRY)
    roots = [name for name in names if name not in injected]
    report = lint_mod.lint_registry(names, layouts=layouts,
                                    injected=injected)
    if args.races:
        from ..analysis.races import race_diagnostics

        for name in roots:  # roots carry their closures
            report.extend(race_diagnostics(ir.get_program(name)))
    protocol_mc: dict = {}
    if args.protocol_mc:
        from ..analysis.protocol_mc import mc_diagnostics, model_check

        for name in roots:
            prog = ir.get_program(name)
            ctx = contexts.get(name, {})
            kwargs = dict(
                entry=ctx.get("entry", lint_mod.root_entry_coord(prog)),
                initial_signals=ctx.get("initial_signals", ()),
                max_states=args.mc_states,
                deadline_s=None)
            res = model_check(name, **kwargs)
            report.extend(mc_diagnostics(prog, result=res, **kwargs))
            protocol_mc[name] = res.to_json()
    loops: dict = {}
    if args.loop:
        extra = DiagnosticReport()
        for name in names:
            try:
                analysis = analyze_loop(ir.get_program(name), args.loop)
                extra.extend(loop_diagnostics(ir.get_program(name),
                                              args.loop))
            except AnalysisError:
                continue  # no unique loop over that variable: skip
            loops[name] = {
                "loop": args.loop,
                "dependences": [_vector_json(d)
                                for d in analysis.dependences],
            }
        report.extend(extra)

    errors, warnings = len(report.errors), len(report.warnings)
    code = 1 if errors or (args.strict and warnings) else 0
    if args.as_json:
        payload = {
            "mode": "lint",
            "programs": list(names),
            "diagnostics": [_diag_json(d) for d in report],
            "summary": {
                "programs": len(names),
                "errors": errors,
                "warnings": warnings,
                "notes": len(report) - errors - warnings,
            },
            "exit_code": code,
        }
        if args.loop:
            payload["loops"] = loops
        if args.protocol_mc:
            payload["protocol_mc"] = protocol_mc
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code

    for diag in report:
        print(format_diagnostic(diag))
    print(f"\n{len(names)} program(s) linted: {errors} error(s), "
          f"{warnings} warning(s), "
          f"{len(report) - errors - warnings} note(s)")
    return code
