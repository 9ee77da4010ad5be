"""Shared fixtures: small synthetic layers and deterministic data."""

import contextlib

import numpy as np
import pytest

from repro.conv.layer import ConvLayerSpec
from repro.gpu.config import SimulationOptions


def pytest_configure(config):
    # The benchmarks lane deselects with `-m "not slow"`; if the
    # marker ever drops out of pyproject.toml the filter silently
    # matches nothing, so assert its registration here once.
    markers = [m.split(":", 1)[0] for m in config.getini("markers")]
    assert "slow" in markers, (
        "the 'slow' marker must stay registered in pyproject.toml"
    )


@contextlib.contextmanager
def event_oracle():
    """Within the block, :func:`~repro.gpu.simulator.simulate_layer`
    replays through the event-level oracle
    (:func:`repro.gpu.ldst.replay_trace`) instead of the fast replay.

    This is how end-to-end results are checked against the oracle;
    it covers every sweep point, since they all replay through
    ``simulate_layer``.
    """
    from repro.gpu import simulator
    from repro.gpu.ldst import replay_trace

    fast = simulator.replay_trace_fast

    def oracle(*args, trace_key=None):
        return replay_trace(*args)

    simulator.replay_trace_fast = oracle
    try:
        yield
    finally:
        simulator.replay_trace_fast = fast


def make_spec(
    name="tiny",
    network="test",
    batch=1,
    h=8,
    w=8,
    c=4,
    filters=8,
    kh=3,
    kw=3,
    pad=1,
    stride=1,
    transposed=False,
    output_pad=0,
):
    """Synthetic layer factory used across the suite."""
    return ConvLayerSpec(
        name=name,
        network=network,
        batch=batch,
        in_height=h,
        in_width=w,
        in_channels=c,
        num_filters=filters,
        filter_height=kh,
        filter_width=kw,
        pad=pad,
        stride=stride,
        transposed=transposed,
        output_pad=output_pad,
    )


@pytest.fixture
def tiny_spec():
    """1x8x8x4 input, 8 3x3 filters, pad 1, stride 1."""
    return make_spec()


@pytest.fixture
def strided_spec():
    """Stride-2, pad-0 variant (ResNet C3-style geometry)."""
    return make_spec(name="strided", h=9, w=9, pad=0, stride=2)


@pytest.fixture
def transposed_spec():
    """DCGAN-style transposed convolution (upsampling by 2)."""
    return make_spec(
        name="tconv", h=4, w=4, c=8, filters=4, kh=5, kw=5, pad=2,
        stride=2, transposed=True, output_pad=1,
    )


@pytest.fixture
def multibatch_spec():
    """Batch of 3 images to exercise batch-ID separation."""
    return make_spec(name="batch3", batch=3, h=6, w=6, c=2, filters=4)


@pytest.fixture
def rng():
    return np.random.default_rng(20200725)


@pytest.fixture
def fast_options():
    """Simulation options capped for test speed."""
    return SimulationOptions(max_ctas=2)


@pytest.fixture
def arch_preset():
    """The environment-selected architecture preset.

    Resolves ``$REPRO_ARCH`` (default volta) via
    :func:`repro.gpu.config.get_arch`; the CI arch-matrix lane re-runs
    the not-slow suite with this pointed at each zoo entry, so tests
    taking this fixture get exercised under every fragment geometry.
    """
    from repro.gpu.config import get_arch

    return get_arch()
