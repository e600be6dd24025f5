"""Ordering modules so imported modules come before their importers."""

from conftest import parse_corpus

from defsort.modorder import build_module_graph, order_modules
from defsort.syntax import parse_source


def _mods(*names):
    mods = []
    for name in names:
        mods.extend(parse_corpus(name))
    return mods


def test_import_chain_orders_deepest_first():
    mods = _mods("chain_a.vdmsl", "chain_b.vdmsl", "chain_c.vdmsl")
    ordered, removed, warnings = order_modules(mods)
    assert ordered == ["C", "B", "A"]
    assert removed == []
    assert warnings == []


def test_independent_modules_keep_input_order():
    src = (
        "module X\ndefinitions\nend X\n"
        "module Y\ndefinitions\nend Y\n"
        "module Z\ndefinitions\nend Z\n"
    )
    ordered, removed, warnings = order_modules(parse_source(src))
    assert ordered == ["X", "Y", "Z"]
    assert removed == [] and warnings == []


def test_import_cycle_is_broken_with_a_warning():
    mods = _mods("cyc_p.vdmsl", "cyc_q.vdmsl")
    ordered, removed, warnings = order_modules(mods)
    assert ordered == ["Q", "P"]
    assert removed == [("Q", "P")]
    assert len(warnings) == 1
    w = warnings[0]
    assert (w.severity, w.code) == ("warning", "import-cycle")
    assert w.message == "import cycle broken: ignoring import of P by Q"
    assert str(w).endswith("1:8: warning: import cycle broken: "
                           "ignoring import of P by Q [import-cycle]")
    assert "cyc_q.vdmsl" in str(w)


def test_unresolved_import_warns_but_keeps_ordering():
    mods = _mods("useimp.vdmsl")
    mg, warnings = build_module_graph(mods)
    assert list(mg.nodes) == ["USESIMP"]
    assert [(e.user, e.used) for e in mg.edges] == []
    assert [w.code for w in warnings] == ["unresolved-import"]
    assert "LIB" in warnings[0].message


def test_duplicate_module_keeps_the_first_definition():
    src = (
        "module D\ndefinitions\nvalues\n    a = 1;\nend D\n"
        "module D\ndefinitions\nvalues\n    b = 2;\nend D\n"
    )
    mg, warnings = build_module_graph(parse_source(src))
    assert list(mg.nodes) == ["D"]
    assert [w.code for w in warnings] == ["dup-module"]


def test_multi_module_file_orders_within_one_source():
    mods = _mods("multimod.vdmsl")
    assert len(mods) == 2
    ordered, removed, warnings = order_modules(mods)
    assert set(ordered) == {m.name for m in mods}
    assert removed == [] and warnings == []


def test_repeated_imports_produce_one_edge():
    src = (
        "module B\ndefinitions\nend B\n"
        "module A\nimports from B all\nimports from B all\ndefinitions\nend A\n"
    )
    mg, warnings = build_module_graph(parse_source(src))
    assert [(e.user, e.used) for e in mg.edges] == [("A", "B")]
    assert warnings == []
