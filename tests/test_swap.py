"""Channel-swap properties: relabelling speaker A as B and B as A must relabel
what dde computes from a trace, and change nothing else. They need no oracle
of the rule they check, so they catch a bias an oracle copying the rule would
share. Gaps are the one exception: a tie between turns of A and B that start
and end together goes to B, so there the swap moves the gap; the gap property
states that tie rule instead."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dde import ConversationTrace, cross_channel_events, label_sequence, turn_structure
from dde.simulate import cascaded_run, run_selfchat, stochastic_run
from conftest import random_trace

SWAPS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def traces(draw):
    """A random trace on a 1, 20 or 160ms lattice, or a stochastic or
    cascaded self-chat of up to 3 min: simulated turns of A and B sometimes
    start and end on the same 160ms ticks."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["random", "stochastic", "cascaded"]))
    if kind == "random":
        rng = np.random.default_rng(seed)
        return random_trace(rng, max_duration_ms=40000, align_ms=draw(st.sampled_from([1, 20, 160])))
    run = stochastic_run if kind == "stochastic" else cascaded_run
    return run_selfchat(run(seed, draw(st.integers(1, 1125)) * 160))


def swapped(trace):
    return ConversationTrace((trace.channels[1], trace.channels[0]), trace.duration_ms)


def relabelled(items):
    """(speaker, x) pairs with the speakers swapped, in a fixed order."""
    return sorted((1 - sp, x) for sp, x in items)


@SWAPS
@given(traces())
def test_swapping_channels_swaps_the_tick_labels(trace):
    other = swapped(trace)
    assert label_sequence(other, "A") == label_sequence(trace, "B")
    assert label_sequence(other, "B") == label_sequence(trace, "A")


@SWAPS
@given(traces())
def test_overlaps_backchannels_and_pauses_do_not_change_under_the_swap(trace):
    events, other = cross_channel_events(trace), cross_channel_events(swapped(trace))
    assert other["overlaps"] == events["overlaps"]
    assert sorted(other["backchannels"]) == relabelled(events["backchannels"])
    assert sorted(other["pauses"]) == relabelled(events["pauses"])


def gaps_by_tie_rule(trace):
    """The gap rule stated per turn: turns are taken in (start, end, speaker)
    order, and each follows the latest-ending turn before it, of turns ending
    together the last in that order; a positive silence after the other
    speaker's turn is a gap (silence, from, to)."""
    turns = sorted((s, e, sp) for sp in (0, 1) for s, e in turn_structure(trace, sp).turns)
    gaps = []
    for i, (start, _, sp) in enumerate(turns[1:], 1):
        _, end, before = turns[max(range(i), key=lambda j: (turns[j][1], j))]
        if before != sp and start > end:
            gaps.append((start - end, before, sp))
    return gaps


@SWAPS
@given(traces())
def test_gaps_follow_the_tie_rule_and_swap_where_no_turns_coincide(trace):
    other = swapped(trace)
    gaps, other_gaps = cross_channel_events(trace)["gaps"], cross_channel_events(other)["gaps"]
    assert gaps == gaps_by_tie_rule(trace)
    assert other_gaps == gaps_by_tie_rule(other)
    turns = [set(turn_structure(trace, sp).turns) for sp in (0, 1)]
    if not turns[0] & turns[1]:
        assert sorted(other_gaps) == sorted((d, 1 - a, 1 - b) for d, a, b in gaps)
