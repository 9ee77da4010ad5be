"""Greedy-then-oldest (GTO) warp scheduling.

Table III's scheduling policy.  GTO runs one warp greedily until it
stalls on a long dependency (here: the MMA consuming a k-step's
fragments drains only so much run-ahead), then falls back to the
oldest ready warp.  For trace generation the observable consequence
is the *burst order*: each scheduling turn a warp issues
``warp_runahead`` k-steps of loads, and turns rotate oldest-CTA-first
across the CTAs co-resident on the SM.

:func:`gto_turns` yields that order turn by turn.  Trace synthesis in
``repro.gpu.kernel`` takes only :func:`waves` from here: its
``_span_columns`` writes the same GTO order in closed form, and
``gto_turns`` is the reference that ``tests/trace_loop_oracle.py``
replays to check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Turn:
    """One scheduling turn: a warp issuing a span of k-steps."""

    cta_index: int  # index into the wave's CTA list (oldest first)
    warp: int  # warp within the CTA
    k_start: int
    k_end: int  # exclusive


def gto_turns(
    num_ctas: int,
    warps_per_cta: int,
    k_steps: int,
    runahead: int,
) -> Iterator[Turn]:
    """Scheduling turns for one wave of co-resident CTAs.

    Every warp advances ``runahead`` k-steps per turn; turns sweep
    oldest CTA first, then warp order within the CTA.  (All warps of a
    wave execute the same k-loop length, so the wave stays aligned at
    turn boundaries — the lockstep the round-robin fallback of GTO
    produces for homogeneous warps.)
    """
    if num_ctas < 1 or warps_per_cta < 1:
        raise ValueError("need at least one CTA and one warp")
    if k_steps < 0 or runahead < 1:
        raise ValueError("k_steps must be >= 0 and runahead >= 1")
    for k_start in range(0, k_steps, runahead):
        k_end = min(k_start + runahead, k_steps)
        for cta_index in range(num_ctas):
            for warp in range(warps_per_cta):
                yield Turn(cta_index=cta_index, warp=warp, k_start=k_start, k_end=k_end)


def waves(items: Sequence, concurrency: int) -> Iterator[Sequence]:
    """Split a CTA list into co-resident waves (oldest first)."""
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    for start in range(0, len(items), concurrency):
        yield items[start : start + concurrency]
