"""Per-machine reference tally of a :class:`~repro.mpc.plan.RoundPlan`.

The engine tallies a round by vectors over machine ids
(:meth:`RoundPlan.volumes`); this is the dict view the tests compare
against: one Python pass over the plan's per-run view, summing words by
source and by destination.
"""

from __future__ import annotations

from repro.mpc import RoundPlan


def tally(plan: RoundPlan) -> tuple[dict[int, int], dict[int, int], int, int]:
    """``(sent, received, total_words, items)`` of *plan*, each machine
    keyed in order of first appearance (as a source, as a destination)
    over :meth:`RoundPlan.runs`."""
    srcs, dsts, lengths, words = plan.run_meta()
    sent: dict[int, int] = {}
    received: dict[int, int] = {}
    for src, dst, amount in zip(srcs, dsts, words):
        sent[src] = sent.get(src, 0) + amount
        received[dst] = received.get(dst, 0) + amount
    return sent, received, sum(words), sum(lengths)
