import pytest

import skelkit.skel as skel
from spans import Patches, Span, Tracer, covered, qr_flops, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered(2, 6, [(0, 3), (5, 9)]) == 2


def test_self_time_subtracts_direct_children_only():
    spans = [Span("root", None, "setup", 0.0, 10.0),
             Span("a", 0, "setup", 1.0, 4.0),
             Span("a.child", 1, "setup", 2.0, 3.0),
             Span("b", 0, "setup", 3.0, 6.0),     # overlaps a: union is 1..6
             Span("c", 0, "setup", 8.0, 9.0)]
    st = self_times(spans)
    assert st == pytest.approx([10 - 6, 3 - 1, 1, 3, 1])


def test_tracer_records_nesting_and_pauses():
    tr = Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tr.spans == []          # disabled: no spans
    tr.enabled, tr.phase = True, "loop"
    assert outer(1) == 4
    assert [(s.name, s.parent, s.phase) for s in tr.spans] == \
        [("outer", None, "loop"), ("inner", 0, "loop")]
    with tr.paused():
        outer(1)
    assert len(tr.spans) == 2


def test_tracer_marks_failed_spans():
    tr = Tracer()
    tr.enabled = True
    boom = tr.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tr.spans[0].error == "ZeroDivisionError" and tr._stack == []


def test_patches_restore_originals():
    original = skel.eval_block
    with Patches(Tracer()):
        assert skel.eval_block is not original
    assert skel.eval_block is original


def test_qr_flops_small_case():
    # 3 x 2, one step: 4 * 3 * 1; two steps: + 4 * 2 * 0
    assert qr_flops(3, 2, 1) == 12
    assert qr_flops(3, 2, 2) == 12
    assert qr_flops(3, 2, 1, complex_=True) == 48
