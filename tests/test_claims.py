"""Claims catalog consistency with the experiment harness and the
committed results."""

import csv
from pathlib import Path

from repro.analysis import experiments as exp_mod
from repro.analysis.claims import CLAIMS, measured_claims

RESULTS = Path(__file__).resolve().parent.parent / "results"


class TestCatalogShape:
    def test_keys_unique(self):
        keys = [c.key for c in CLAIMS]
        assert len(set(keys)) == len(keys)

    def test_every_claim_cites_a_section(self):
        assert all(c.section for c in CLAIMS)

    def test_measured_claims_reference_real_experiments(self):
        for claim in measured_claims():
            name, _metric = claim.measured_by
            assert name in exp_mod.REGISTRY, claim.key

    def test_reasonable_coverage(self):
        """Most quantitative claims are directly measured."""
        assert len(measured_claims()) >= 14
        assert len(CLAIMS) >= 20


class TestCommittedResults:
    def test_summary_paper_cells_equal_the_claims(self):
        """Every measured claim appears, with its catalogued value, in
        the ``paper`` column of its committed ``results/`` summary."""
        for claim in measured_claims():
            name, metric = claim.measured_by
            with open(RESULTS / f"{name}_summary.csv", newline="") as fh:
                rows = {r["metric"]: r for r in csv.DictReader(fh)}
            assert metric in rows, claim.key
            assert rows[metric]["paper"] == str(claim.value), claim.key
