"""Shared-LHB multi-kernel runs: PID isolation and contention."""

from dataclasses import replace

import pytest

from repro.core.lhb import LoadHistoryBuffer
from repro.gpu.config import ARCHS, GPUConfig, KernelConfig, SimulationOptions
from repro.gpu.fastpath import replay_trace_fast
from repro.gpu.kernel import generate_sm_trace
from repro.gpu.ldst import EliminationMode
from repro.gpu.multikernel import contention_report, simulate_shared_lhb
from repro.gpu.simulator import make_lhb

from tests.conftest import make_spec

GPU = GPUConfig(num_sms=1)
KERNEL = KernelConfig(warp_runahead=8)
OPTIONS = SimulationOptions()


def spec_a():
    return make_spec(name="ka", batch=1, h=10, w=10, c=16, filters=16)


def spec_b():
    return make_spec(name="kb", batch=1, h=10, w=10, c=16, filters=16)


def run(specs, entries=1024, lhb=None, chunk=256):
    return simulate_shared_lhb(
        specs, entries, chunk=chunk, gpu=GPU, kernel=KERNEL,
        options=OPTIONS, lhb=lhb,
    )


class TestIsolation:
    def test_identical_kernels_do_not_cross_hit(self):
        """Two identical kernels issue identical (batch, element)
        streams; without PID separation every second lookup would hit
        the other kernel's entry.  With an *unbounded, non-expiring*
        buffer, each kernel must reproduce exactly its solo hits."""
        lhb = LoadHistoryBuffer(num_entries=None, lifetime=None)
        shared = run([spec_a(), spec_b()], lhb=lhb)
        solo = run([spec_a()], entries=None,
                   lhb=LoadHistoryBuffer(num_entries=None, lifetime=None))[0]
        for share in shared:
            assert share.hits == solo.hits

    def test_compulsory_misses_double_with_two_pids(self):
        lhb = LoadHistoryBuffer(num_entries=None, lifetime=None)
        run([spec_a(), spec_b()], lhb=lhb)
        solo_lhb = LoadHistoryBuffer(num_entries=None, lifetime=None)
        run([spec_a()], lhb=solo_lhb)
        assert (
            lhb.stats.compulsory_misses
            == 2 * solo_lhb.stats.compulsory_misses
        )


class TestContention:
    def test_finite_buffer_contention_costs_hits(self):
        report = contention_report(
            [spec_a(), spec_b()], lhb_entries=512,
            gpu=GPU, kernel=KERNEL, options=OPTIONS, chunk=128,
        )
        for stats in report.values():
            assert stats["contention_loss"] >= -1e-9
        assert any(s["contention_loss"] > 0.0 for s in report.values())

    def test_lookup_conservation(self):
        shares = run([spec_a(), spec_b()])
        solo = run([spec_a()])[0]
        assert all(s.lookups == solo.lookups for s in shares)


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_one_kernel_matches_the_duplo_replay(arch):
    """Alone on the SM, a kernel's shared-LHB run is its DUPLO replay:
    the same lookups (one workspace translation, at the GPU's element
    width and row alignment) and the same hits from an equal buffer."""
    preset = ARCHS[arch]
    gpu = replace(preset.gpu, num_sms=1)
    spec = make_spec(name="solo", batch=1, h=10, w=10, c=16, filters=16)
    options = SimulationOptions(max_ctas=2)
    replayed = make_lhb(256, 2, options.lhb_lifetime, options.lhb_hashed_index)
    trace = generate_sm_trace(spec, gpu, preset.kernel, options)
    stats = replay_trace_fast(
        trace, spec, gpu, options, EliminationMode.DUPLO, replayed
    )
    (share,) = simulate_shared_lhb(
        [spec], 256, gpu=gpu, kernel=preset.kernel, options=options,
        lhb_assoc=2,
    )
    assert stats.lhb_lookups > 0
    assert (share.lookups, share.hits) == (stats.lhb_lookups, stats.lhb_hits)


class TestValidation:
    def test_empty_kernel_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            simulate_shared_lhb([])

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk"):
            simulate_shared_lhb([spec_a()], chunk=0)
