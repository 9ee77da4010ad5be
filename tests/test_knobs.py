"""Every configuration knob decides something.

Each :class:`SimulationOptions` field (bar ``engine``, which only picks
the tier answering a request) and each :class:`KernelConfig` field is
flipped to one valid alternative, from a base where the field applies.
The flip must change the synthesized trace or the ``LayerResult`` of a
small probe layer.  A field that changes neither is a second key for
one result: it splits the store and documents a decision the model
never makes.  A new field fails here until it is given a flip.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.idgen import IDMode
from repro.gpu.config import (
    BASELINE_KERNEL,
    GPUConfig,
    IMPLICIT_KERNEL,
    KernelConfig,
    SimulationOptions,
)
from repro.gpu.isa import LOAD_A, LOAD_B, STORE_D
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.simulator import EliminationMode, clear_trace_cache, simulate_layer

from tests.conftest import make_spec

#: Two SMs with four CTAs each (two waves at the baseline occupancy of
#: three), padded 3x3 windows, and a small LHB that set conflicts reach.
GPU = GPUConfig(num_sms=2)
SPEC = make_spec(name="knobs", batch=16, h=8, w=8, c=16, filters=16)
LHB_ENTRIES = 64
BASE_OPTIONS = SimulationOptions()

#: field -> (base kernel, base options, flipped value).
FLIPS = {
    "max_ctas": (BASELINE_KERNEL, BASE_OPTIONS, 1),
    "id_mode": (BASELINE_KERNEL, BASE_OPTIONS, IDMode.PAPER),
    "merge_padding": (BASELINE_KERNEL, BASE_OPTIONS, True),
    "lhb_lifetime": (BASELINE_KERNEL, BASE_OPTIONS, 64),
    "lhb_hashed_index": (BASELINE_KERNEL, BASE_OPTIONS, False),
    "lhb_granularity": (BASELINE_KERNEL, BASE_OPTIONS, "instruction"),
    "detection_latency": (BASELINE_KERNEL, BASE_OPTIONS, 3),
    "representative_sm": (BASELINE_KERNEL, BASE_OPTIONS, 1),
    "cta_tile_m": (BASELINE_KERNEL, BASE_OPTIONS, 64),
    "cta_tile_n": (BASELINE_KERNEL, BASE_OPTIONS, 32),
    "warp_tile_m": (BASELINE_KERNEL, BASE_OPTIONS, 16),
    "warp_tile_n": (BASELINE_KERNEL, BASE_OPTIONS, 16),
    "shared_operands": (BASELINE_KERNEL, BASE_OPTIONS, "abc"),
    "implicit": (replace(BASELINE_KERNEL, shared_operands="abc"), BASE_OPTIONS, True),
    "stage_k": (IMPLICIT_KERNEL, BASE_OPTIONS, 32),
    "warp_runahead": (BASELINE_KERNEL, BASE_OPTIONS, 4),
}

#: Fields that decide which code answers, never the answer.
TIER_ONLY = {"engine"}

KNOBS = [
    (owner, f.name)
    for owner in (SimulationOptions, KernelConfig)
    for f in fields(owner)
    if f.name not in TIER_ONLY
]


@pytest.fixture(autouse=True)
def _exact_engine(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    clear_trace_cache()
    yield
    clear_trace_cache()


def _probe(kernel, options):
    """The probe layer's trace columns and DUPLO ``LayerResult``."""
    trace = generate_sm_trace(SPEC, GPU, kernel, options)
    columns = (trace.kind, trace.address, trace.warp, trace.instr)
    result = simulate_layer(
        SPEC, EliminationMode.DUPLO, LHB_ENTRIES, gpu=GPU, kernel=kernel,
        options=options,
    )
    return columns, result


def _same_trace(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize(
    "owner,name", KNOBS, ids=[f"{o.__name__}.{n}" for o, n in KNOBS]
)
def test_knob_changes_trace_or_result(owner, name):
    if name not in FLIPS:
        pytest.fail(f"{owner.__name__}.{name} has no flip in FLIPS")
    kernel, options, value = FLIPS[name]
    base = kernel if owner is KernelConfig else options
    assert getattr(base, name) != value
    flipped = replace(base, **{name: value})

    base_trace, base_result = _probe(kernel, options)
    if owner is KernelConfig:
        trace, result = _probe(flipped, options)
    else:
        trace, result = _probe(kernel, flipped)
    assert not (_same_trace(base_trace, trace) and base_result == result), (
        f"{owner.__name__}.{name}={value!r} changes neither the trace nor "
        f"the LayerResult"
    )


def test_every_flip_names_a_knob():
    assert set(FLIPS) == {name for _, name in KNOBS}


def test_explicit_shared_operands_change_occupancy_only():
    """Without ``implicit``, staging "a" and "b" in shared memory only
    grows ``shared_mem_per_cta`` (and so cuts occupancy): the all-in-
    shared variant of Section II-C is modelled by occupancy alone, and
    its tensor-core loads still reach global memory as plain A and B
    fragment loads."""
    kernel = replace(BASELINE_KERNEL, shared_operands="abc")
    assert kernel.shared_mem_per_cta(GPU) > BASELINE_KERNEL.shared_mem_per_cta(GPU)
    trace = generate_sm_trace(SPEC, GPU, kernel, BASE_OPTIONS)
    assert set(np.unique(trace.kind).tolist()) == {LOAD_A, LOAD_B, STORE_D}
