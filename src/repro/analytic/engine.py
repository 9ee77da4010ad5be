"""Engine-tier selection: analytic model vs fast replay.

One simulation request can be answered at two price points:

=========  =============  ==========================================
tier       cost           fidelity
=========  =============  ==========================================
analytic   O(1) / query   exact LHB counters, bounded-error traffic
fast       O(trace)       exact (bit-identical to the event-level
                          reference oracle, ``ldst.replay_trace``)
=========  =============  ==========================================

The event-level oracle is not a runtime tier: tests and benchmarks
call it directly.  :func:`resolve_engine` turns
``SimulationOptions.engine`` plus the ``$REPRO_ENGINE`` environment
override into a requested tier;
:func:`analytic_fallback_reason` reports why a configuration is
outside analytic coverage (``None`` = covered) — every silent
downgrade is counted under ``analytic.fallback`` (plus an
``analytic.fallback.<reason>`` label) so a covered configuration
regressing to a slower tier shows up in metrics.  The tier that
actually answered is published as ``engine.selected.<tier>``.

The env override only applies when the option is left at ``"auto"``
— an explicit option always wins.
"""

from __future__ import annotations

import os
from typing import Optional

from repro import obs
from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.config import KernelConfig, SimulationOptions
from repro.gpu.ldst import EliminationMode

#: Environment override consulted when ``options.engine == "auto"``:
#: ``REPRO_ENGINE=analytic`` pins the analytic tier without rebuilding
#: options objects (the CI engine lane uses exactly this); any other
#: value is ignored.
ENGINE_ENV = "REPRO_ENGINE"


def resolve_engine(options: SimulationOptions) -> str:
    """The requested tier: explicit option, else env, else ``"auto"``.

    ``"auto"`` means the exact tier: the vectorised fast replay.
    """
    if options.engine != "auto":
        return options.engine
    if os.environ.get(ENGINE_ENV, "").strip().lower() == "analytic":
        return "analytic"
    return "auto"


def analytic_fallback_reason(
    kernel: KernelConfig,
    options: SimulationOptions,
    mode: EliminationMode,
    lhb: Optional[LoadHistoryBuffer],
) -> Optional[str]:
    """Why this configuration needs an exact tier (``None`` = covered).

    Coverage is the explicit-GEMM fragment-granularity stream with an
    LHB whose set count is a power of two (or the oracle) —
    hashed and modular indexing both covered.  Everything else routes
    to the fast replay:

    * ``implicit-kernel`` — the implicit-GEMM stream stages through
      shared memory with cooperative input fetches the closed forms
      do not model;
    * ``instruction-granularity`` — the coarser LHB lookup ablation
      consults once per warp instruction, a different consult stream;
    * ``npo2-sets`` — the per-level reuse tables nest only along
      power-of-two set counts.
    """
    if kernel.implicit:
        return "implicit-kernel"
    if options.lhb_granularity != "fragment":
        return "instruction-granularity"
    if mode is not EliminationMode.BASELINE and lhb is not None:
        if not lhb.is_oracle and lhb.num_sets & (lhb.num_sets - 1):
            return "npo2-sets"
    return None


def supports_analytic(
    kernel: KernelConfig,
    options: SimulationOptions,
    mode: EliminationMode,
    lhb: Optional[LoadHistoryBuffer],
) -> bool:
    """True when the analytic model covers this configuration."""
    return analytic_fallback_reason(kernel, options, mode, lhb) is None


def analytic_resolves(
    kernel: KernelConfig,
    options: SimulationOptions,
    mode: EliminationMode,
    lhb_entries: Optional[int],
    lhb_assoc: int,
) -> bool:
    """Would :func:`~repro.gpu.simulator.simulate_layer` answer this
    request analytically?

    The sweep executor consults this *before* touching the result
    cache: analytic answers are approximate, so they must neither be
    persisted under a key an exact tier would later read, nor be
    served from exact results cached earlier — an analytic sweep
    always recomputes from the (cheap) profile.  Mirrors
    :func:`analytic_fallback_reason` for the fresh LHB
    ``simulate_layer`` builds from ``(lhb_entries, lhb_assoc)``.
    """
    if resolve_engine(options) != "analytic":
        return False
    if kernel.implicit or options.lhb_granularity != "fragment":
        return False
    if mode is EliminationMode.BASELINE or lhb_entries is None:
        return True
    num_sets = lhb_entries // max(lhb_assoc, 1)
    return num_sets > 0 and not (num_sets & (num_sets - 1))


def count_fallback(reason: str) -> None:
    """Report one analytic → exact downgrade into the metrics registry."""
    obs.add("analytic.fallback")
    obs.add(f"analytic.fallback.{reason}")


def count_selected(tier: str) -> None:
    """Report which tier actually answered a simulation request."""
    obs.add(f"engine.selected.{tier}")
