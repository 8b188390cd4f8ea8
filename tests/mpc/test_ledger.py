"""Round ledger: counting, sections, parallel repetitions."""

import numpy as np

from repro.mpc import RoundLedger


def make_round(ledger: RoundLedger, note: str = "r") -> None:
    ledger.record_round(note=note, total_words=10, max_sent=5, max_received=5)


def test_rounds_increment():
    ledger = RoundLedger()
    for _ in range(3):
        make_round(ledger)
    assert ledger.rounds == 3
    assert len(ledger.records) == 3


def test_total_words_accumulate():
    ledger = RoundLedger()
    make_round(ledger)
    make_round(ledger)
    assert ledger.total_words == 20


def test_sections_label_rounds():
    ledger = RoundLedger()
    with ledger.section("phase-a"):
        make_round(ledger, "x")
        with ledger.section("inner"):
            make_round(ledger, "y")
    make_round(ledger, "z")
    assert "phase-a" in ledger.records[0].note
    assert "inner" in ledger.records[1].note
    assert "phase-a" not in ledger.records[2].note


def test_rounds_in_section():
    ledger = RoundLedger()
    with ledger.section("alpha"):
        make_round(ledger)
        make_round(ledger)
    make_round(ledger)
    assert sum("alpha" in record.note for record in ledger.records) == 2


def test_parallel_charges_max_not_sum():
    ledger = RoundLedger()
    with ledger.parallel("boost") as par:
        for branch_rounds in (2, 5, 3):
            with par.branch():
                for _ in range(branch_rounds):
                    make_round(ledger)
    assert ledger.rounds == 5


def test_parallel_with_early_break():
    ledger = RoundLedger()
    with ledger.parallel("retry") as par:
        for _ in range(10):
            with par.branch():
                make_round(ledger)
                make_round(ledger)
            break  # first attempt succeeded
    assert ledger.rounds == 2


def test_nested_rounds_after_parallel_continue_from_max():
    ledger = RoundLedger()
    make_round(ledger)
    with ledger.parallel("p") as par:
        with par.branch():
            make_round(ledger)
            make_round(ledger)
    make_round(ledger)
    assert ledger.rounds == 4


def test_empty_parallel_charges_nothing():
    ledger = RoundLedger()
    with ledger.parallel("p"):
        pass
    assert ledger.rounds == 0


def test_charge_adds_synthetic_rounds():
    ledger = RoundLedger()
    ledger.charge(4, note="simulated-subroutine")
    assert ledger.rounds == 4
    assert all(record.total_words == 0 for record in ledger.records)


def test_charge_negative_is_noop():
    ledger = RoundLedger()
    ledger.charge(-3)
    assert ledger.rounds == 0


def test_memory_high_water():
    ledger = RoundLedger()
    ledger.record_memory(np.array([1]), np.array([100]))
    ledger.record_memory(np.array([1]), np.array([50]))
    ledger.record_memory(np.array([2]), np.array([80]))
    assert ledger.memory_high_water == {1: 100, 2: 80}


def test_violations_collected():
    ledger = RoundLedger()
    ledger.record_round("bad", 10, 5, 5, violations=("machine 0 over",))
    assert ledger.violations == ["machine 0 over"]


def test_summary_fields():
    ledger = RoundLedger()
    make_round(ledger)
    ledger.record_memory(np.array([0]), np.array([7]))
    summary = ledger.summary()
    assert summary["rounds"] == 1
    assert summary["max_memory"] == 7
    assert summary["violations"] == 0
