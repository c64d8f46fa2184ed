"""Tests of the benchmark's span arithmetic and of its patching.

Run with ``python3 -m pytest perfbench``.
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from spans import Patcher, Span, Tracer, self_times  # noqa: E402


def tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    return [Span("root", 0.0, 10.0, None), Span("x.a", 1.0, 4.0, 0),
            Span("x.b", 2.0, 3.0, 1), Span("y.c", 5.0, 9.0, 0)]


def test_self_time_subtracts_direct_children_only():
    st = self_times(tree())
    assert st == {"root": 3.0, "x.a": 2.0, "x.b": 1.0, "y.c": 4.0}
    assert sum(st.values()) == 10.0


def test_self_time_sums_over_calls_of_one_name():
    sp = tree() + [Span("x.b", 6.0, 8.5, 3)]
    st = self_times(sp)
    assert st["x.b"] == 1.0 + 2.5
    assert st["y.c"] == 4.0 - 2.5


def test_self_time_window_counts_only_finished_spans():
    st = self_times(tree(), until=4.5)
    assert st == {"x.a": 2.0, "x.b": 1.0}


def test_layer_and_ancestry():
    sp = tree()
    assert spans.layer_of("numkernel.factor") == "numkernel"
    assert spans.has_ancestor(sp, 2, "root")
    assert spans.has_ancestor(sp, 2, "x.a")
    assert not spans.has_ancestor(sp, 3, "x.a")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_links_parents_and_skips_direct_recursion():
    tr = Tracer(clock=FakeClock())
    seen = []

    def leaf(x):
        return x + 1

    def rec(n):
        return 0 if n == 0 else traced_rec(n - 1)

    traced_leaf = tr.wrap("m.leaf", leaf, lambda a, out: seen.append(out))
    traced_rec = tr.wrap("m.rec", rec)
    outer = tr.wrap("m.outer", lambda: traced_leaf(1) + traced_rec(3))
    assert outer() == 2
    assert [s.name for s in tr.spans] == ["m.outer", "m.leaf", "m.rec"]
    assert [s.parent for s in tr.spans] == [None, 0, 0]
    assert seen == [2]
    assert all(s.end > s.start for s in tr.spans)


def test_tracer_closes_span_on_exception():
    tr = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("m.boom", boom)()
    assert tr.spans[0].end > tr.spans[0].start
    assert tr._stack == []


def test_patcher_replaces_every_binding_and_restores():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f():
        return "orig"

    class K:
        def m(self):
            return "m"

        @classmethod
        def c(cls):
            return "c"

    a.f = f
    b.f_alias = f       # as left by "from .a import f as f_alias"
    a.K = K
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        p = Patcher("fakepkg")
        wrap = (lambda fn: lambda *args: "wrapped-" + fn(*args))
        assert p.function(a, "f", wrap)
        assert not p.function(a, "missing", wrap)
        assert p.method(K, "m", wrap)
        assert p.method(K, "c", wrap)
        assert (a.f(), b.f_alias(), K().m(), K.c()) == \
            ("wrapped-orig", "wrapped-orig", "wrapped-m", "wrapped-c")
        assert p.restore()
        assert a.f is f and b.f_alias is f
        assert (K().m(), K.c()) == ("m", "c")
        assert isinstance(K.__dict__["c"], classmethod)
    finally:
        for key in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(key, None)


def test_install_tracer_restores_daecure_entry_points():
    import worker
    before = {(mod, key): val
              for mod in Patcher()._modules()
              for key, val in vars(mod).items() if callable(val)}
    methods = {(cls, attr): cls.__dict__[attr]
               for _, m, c, attr in worker.METHODS
               for cls in [getattr(worker.MODULES[m], c)]}
    tr = Tracer()
    patcher = worker.install_tracer(tr)
    assert worker.cli._step_interpolation_residuals is not \
        before[(worker.cli, "_step_interpolation_residuals")]
    assert patcher.restore()
    for (mod, key), val in before.items():
        assert vars(mod)[key] is val, (mod.__name__, key)
    for (cls, attr), val in methods.items():
        assert cls.__dict__[attr] is val
