"""F010/F011 lint findings on the shared interval/atom domain.

The F010/F011 lint passes and the solver's tier-0 fast path run the
*same* interval/atom machinery (:mod:`repro.solver.atoms`), not two
copies that can drift.  This re-runs the lint over every fixture
program, checking the F010/F011 surface against a semantic oracle
(world enumeration is overkill here; ``prove_*``'s one-sided contract is
exactly what the passes consume).
"""

from pathlib import Path

import pytest

from repro.analysis.diagnostics import render_text
from repro.analysis.manager import analyze_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "programs"
PROGRAMS = sorted(FIXTURES.glob("*/*.fl"))


@pytest.mark.parametrize("path", PROGRAMS, ids=[p.stem for p in PROGRAMS])
def test_f010_f011_diagnostics_stable(path):
    """The refactor must not move a single F010/F011 finding."""
    findings = analyze_text(
        path.read_text(), file=str(path), select=["F010", "F011"]
    )
    rendered = render_text(findings)
    expected_codes = {
        "contradiction": {"F011"},
        "tautology": {"F010"},
    }.get(path.stem, set())
    assert {f.code for f in findings} == expected_codes, rendered


def test_contradiction_fixture_exact_shape():
    path = FIXTURES / "warn" / "contradiction.fl"
    findings = analyze_text(path.read_text(), select=["F011"])
    assert len(findings) == 2  # both contradictory rules in the fixture
    for finding in findings:
        assert finding.code == "F011"
        assert "never fire" in finding.message


def test_tautology_fixture_exact_shape():
    path = FIXTURES / "warn" / "tautology.fl"
    findings = analyze_text(path.read_text(), select=["F010"])
    assert len(findings) >= 1
    assert {f.code for f in findings} == {"F010"}
