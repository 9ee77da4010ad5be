"""Layer dossiers (analysis.layerstudy) and the inspect CLI."""

import pytest

from repro.analysis.layerstudy import study_layer
from repro.analysis.roofline import roofline_point
from repro.cli import main
from repro.conv.workloads import get_layer
from repro.gpu.config import ARCHS, SimulationOptions

from tests.conftest import make_spec

OPTIONS = SimulationOptions(max_ctas=2)


@pytest.fixture(scope="module")
def c2_dossier():
    return study_layer(get_layer("resnet", "C2"), options=OPTIONS)


class TestDossier:
    def test_summary_keys(self, c2_dossier):
        summary = c2_dossier.summary()
        assert {
            "duplication_factor",
            "lhb_hit_rate",
            "improvement",
            "dram_read_reduction",
            "on_chip_energy_reduction",
        } <= set(summary)

    def test_c2_is_sweet_spot(self, c2_dossier):
        assert "sweet spot" in c2_dossier.verdict
        assert c2_dossier.improvement > 0.1

    def test_share_decomposition_consistent(self, c2_dossier):
        s = c2_dossier.summary()
        assert (
            s["intra_patch_share"] + s["inter_patch_share"]
            <= s["duplicate_fraction"] + 1e-9
        )

    def test_low_duplication_verdict(self):
        dossier = study_layer(
            make_spec(name="k1", kh=1, kw=1, pad=0, c=16, filters=16),
            options=OPTIONS,
        )
        assert "little duplication" in dossier.verdict
        assert dossier.census.duplicates == 0

    def test_oracle_entries(self):
        dossier = study_layer(
            get_layer("resnet", "C8"), lhb_entries=None, options=OPTIONS
        )
        assert dossier.duplo.stats.lhb_hit_rate <= (
            dossier.duplo.stats.theoretical_hit_limit + 1e-9
        )

    def test_dossier_uses_the_archs_roofline(self):
        """resnet C8 (about 194 FLOPs/byte) is compute-bound against
        Volta's balance and memory-bound against hopper-fp8's."""
        spec = get_layer("resnet", "C8")
        hopper = ARCHS["hopper-fp8"]
        dossier = study_layer(
            spec, options=OPTIONS, gpu=hopper.gpu, kernel=hopper.kernel
        )
        assert dossier.roofline == roofline_point(spec, hopper.gpu)
        assert dossier.roofline.machine_balance == pytest.approx(256.6, rel=1e-3)
        assert dossier.roofline.memory_bound
        assert not roofline_point(spec).memory_bound
        assert "compute-bound" not in dossier.verdict


class TestInspectCli:
    def test_inspect_command(self, capsys):
        assert main(["inspect", "resnet", "C8", "--max-ctas", "1"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "lhb_hit_rate" in out
