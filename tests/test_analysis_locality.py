"""Hop-locality checking: the paper layouts prove clean; planted
remote accesses are flagged; substitution through pickup conditions
and inject bindings works."""

from repro.analysis.lint import seed_paper_programs
from repro.analysis.locality import (
    LayoutSpec,
    check_locality,
    fixed_home,
    key_home,
)
from repro.navp import ir

V = ir.Var
C = ir.Const


def _layout(**homes):
    return LayoutSpec(homes=homes, entry=(C(0),))


class TestBasics:
    def test_keyed_tour_is_local(self):
        prog = ir.Program("loc-ok", (
            ir.For("j", C(3), (
                ir.HopStmt((V("j"),)),
                ir.NodeSet("Cv", (V("j"),), ir.NodeGet("B", (V("j"),))),
            )),
        ))
        report = check_locality(prog, _layout(B=key_home(0),
                                              Cv=key_home(0)),
                                registry={})
        assert report.ok

    def test_off_by_one_read_is_remote(self):
        prog = ir.Program("loc-bad", (
            ir.For("j", C(3), (
                ir.HopStmt((V("j"),)),
                ir.Assign("y", ir.NodeGet(
                    "R", (ir.Bin("+", V("j"), C(1)),))),
            )),
        ))
        report = check_locality(prog, _layout(R=key_home(0)),
                                registry={})
        assert [d.category for d in report] == ["remote-access"]
        assert "must be local" in report[0].message

    def test_access_before_any_hop_checked_against_entry(self):
        prog = ir.Program("loc-entry", (
            ir.Assign("y", ir.NodeGet("A", (C(1),))),
        ))
        report = check_locality(prog, _layout(A=key_home(0)),
                                registry={})
        assert [d.category for d in report] == ["remote-access"]

    def test_unknown_layout_or_place_is_skipped(self):
        prog = ir.Program("loc-skip", (
            # no layout entry for "Z" -> skipped
            ir.Assign("y", ir.NodeGet("Z", (C(9),))),
            # place unknown inside a hopping loop before the hop
            ir.For("j", C(3), (
                ir.Assign("w", ir.NodeGet("A", (C(5),))),
                ir.HopStmt((V("j"),)),
            )),
        ))
        report = check_locality(prog, _layout(A=key_home(0)),
                                registry={})
        assert report.ok

    def test_local_set_suppresses_checking(self):
        prog = ir.Program("loc-slot", (
            ir.Assign("y", ir.NodeGet("slot", (C(7),))),
        ))
        layout = LayoutSpec(homes={"slot": key_home(0)},
                            entry=(C(0),), local=frozenset({"slot"}))
        assert check_locality(prog, layout, registry={}).ok


class TestCondSubstitution:
    """The DSC pickup: ``if mj == 0: mA = A[mi]`` at place node(mj)."""

    def _pickup(self, cond):
        return ir.Program("loc-pickup", (
            ir.For("mj", C(3), (
                ir.HopStmt((V("mj"),)),
                ir.If(cond, (
                    ir.Assign("mA", ir.NodeGet("A", (V("mi"),))),
                )),
            )),
        ), params=("mi",))

    def test_equality_cond_pins_the_place(self):
        prog = self._pickup(ir.Bin("==", V("mj"), C(0)))
        report = check_locality(prog, _layout(A=fixed_home(0)),
                                registry={})
        assert report.ok

    def test_without_the_cond_the_access_is_remote(self):
        prog = ir.Program("loc-nopickup", (
            ir.For("mj", C(3), (
                ir.HopStmt((V("mj"),)),
                ir.Assign("mA", ir.NodeGet("A", (V("mi"),))),
            )),
        ), params=("mi",))
        report = check_locality(prog, _layout(A=fixed_home(0)),
                                registry={})
        assert [d.category for d in report] == ["remote-access"]


class TestInjectRecursion:
    def _suite(self, bound):
        child = ir.Program("loc-child", (
            ir.Assign("y", ir.NodeGet("X", (V("p"),))),
        ), params=("p",))
        main = ir.Program("loc-main", (
            ir.HopStmt((C(2),)),
            ir.InjectStmt("loc-child", (("p", bound),)),
        ))
        return main, {"loc-child": child, "loc-main": main}

    def test_bindings_substituted_through_injection(self):
        main, registry = self._suite(C(2))
        report = check_locality(main, _layout(X=key_home(0)),
                                registry=registry)
        assert report.ok

    def test_mismatched_binding_flagged_in_the_child(self):
        main, registry = self._suite(C(1))
        report = check_locality(main, _layout(X=key_home(0)),
                                registry=registry)
        assert [d.category for d in report] == ["remote-access"]
        assert report[0].program == "loc-child"


class TestPaperLayouts:
    def test_every_chain_stage_proves_local(self):
        layouts, _contexts = seed_paper_programs(3)
        assert set(layouts) == {"mm-seq-3", "mm-seq-3-dsc",
                                "mm-seq-3-dsc-pipe",
                                "mm-seq-3-dsc-phase"}
        for name, layout in layouts.items():
            report = check_locality(ir.get_program(name), layout)
            assert report.ok, f"{name}: {report.render()}"
