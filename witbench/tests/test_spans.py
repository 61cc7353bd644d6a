"""Self-time arithmetic on a hand-built span tree."""

import pytest

from witbench.spans import FRAME, Span, frame_breakdown, layer_totals, self_times


def tree():
    # frame [0, 10]
    #   locate [1, 5]
    #   validate [5, 9]
    #     verify.text [6, 8]
    #       nn.text [6.5, 7.5]
    # guest.paint [11, 13] (outside any frame)
    return [
        Span(FRAME, 0.0, 10.0, -1, 1),
        Span("locate", 1.0, 5.0, 0, 1),
        Span("validate", 5.0, 9.0, 0, 1),
        Span("verify.text", 6.0, 8.0, 2, 1),
        Span("nn.text", 6.5, 7.5, 3, 1),
        Span("guest.paint", 11.0, 13.0, -1, 1),
    ]


def test_self_time_subtracts_the_children():
    assert self_times(tree()) == [2.0, 4.0, 2.0, 1.0, 1.0, 2.0]


def test_overlapping_children_are_counted_once():
    spans = [
        Span("p", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_frame_breakdown_adds_up_to_the_frame():
    ((duration, other, layers),) = frame_breakdown(tree())
    assert duration == 10.0
    assert other == 2.0
    assert layers == {"locate": 4.0, "validate": 2.0, "verify.text": 1.0, "nn.text": 1.0}
    assert other + sum(layers.values()) == duration


def test_frame_breakdown_rejects_a_tree_that_does_not_nest():
    spans = [
        Span(FRAME, 0.0, 10.0, -1, 1),
        Span("a", 1.0, 6.0, 0, 1),
        Span("b", 4.0, 8.0, 0, 1),  # overlaps its sibling
    ]
    with pytest.raises(ValueError):
        frame_breakdown(spans)


def test_layer_totals():
    totals = layer_totals(tree())
    assert totals["validate"] == (1, 4.0, 2.0)
    assert totals["guest.paint"] == (1, 2.0, 2.0)
