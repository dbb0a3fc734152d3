import pytest

from marcsim import discrepancy
from marcsim.discrepancy import (
    additive_ser_discrepancy,
    allocation_discrepancy,
    collect_all,
    mgf_pole_discrepancy,
)


def test_mgf_record_measures_the_broken_normalization():
    rec = mgf_pole_discrepancy()
    assert rec.oracle == pytest.approx(1.0, abs=1e-12)  # valid MGF at s=0
    assert rec.printed == pytest.approx(0.0, abs=1e-12)  # shared-pole variant
    assert rec.magnitude >= 0.9


def test_additive_ser_record_nonzero():
    rec = additive_ser_discrepancy()
    assert rec.magnitude > 0.01
    assert rec.printed != rec.oracle


def test_allocation_record_reports_infeasibility():
    rec = allocation_discrepancy()
    assert "feasible: False" in rec.note
    assert rec.magnitude > 1.0  # raw value is far outside the feasible range


def test_collect_all_names():
    names = {rec.name for rec in collect_all()}
    assert names == {
        "mgf_shared_pole",
        "ser_additive_closed_form",
        "power_allocation_closed_form",
    }
    for rec in collect_all():
        assert "magnitude" in rec.as_kv()


def test_collect_all_runs_its_collectors_once_per_process(monkeypatch):
    before = collect_all()
    calls = []
    for name in ("mgf_pole_discrepancy", "additive_ser_discrepancy", "allocation_discrepancy"):
        collector = getattr(discrepancy, name)
        monkeypatch.setattr(discrepancy, name, lambda f=collector, n=name: calls.append(n) or f())
    collect_all.cache_clear()
    try:
        first, second = collect_all(), collect_all()
    finally:
        collect_all.cache_clear()  # the counting collectors leave with monkeypatch
    assert sorted(calls) == ["additive_ser_discrepancy", "allocation_discrepancy", "mgf_pole_discrepancy"]
    assert second is first
    assert first == before  # the same records, value for value
