"""Golden tests: the bound tables against their frozen reference values."""

import pytest

from frogcrit import Model, ParameterError, bound_table, table_cone, table_frogs

from reference_tables import TABLE_CONE, TABLE_DEGREES, TABLE_FROGS

# 6-decimal printing tolerance: half an ulp of the sixth decimal, plus one
CONE_TOL = 1.5e-6
FROGS_TOL = 2e-6


def test_cone_table_matches_reference():
    rows = table_cone(TABLE_DEGREES)
    for row in rows:
        want = TABLE_CONE[row.d]
        got = (
            row.lower_c2,
            row.lower_explicit,
            row.lower_known,
            row.upper_c2,
            row.upper_explicit,
            row.upper_known,
        )
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=CONE_TOL), f"d={row.d}: {got} vs {want}"


def test_frogs_table_matches_reference():
    rows = table_frogs(TABLE_DEGREES)
    for row in rows:
        want = TABLE_FROGS[row.d]
        got = (
            row.original_c2,
            row.original_explicit,
            row.original_known,
            row.self_avoiding_c2,
            row.self_avoiding_explicit,
            row.self_avoiding_known,
        )
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=FROGS_TOL), f"d={row.d}: {got} vs {want}"


def test_single_row_spot_checks():
    cone_d6 = table_cone([6])[0]
    assert cone_d6.lower_c2 == pytest.approx(0.085188, abs=CONE_TOL)
    assert cone_d6.upper_known == pytest.approx(0.087129, abs=CONE_TOL)
    frogs_d15 = table_frogs([15])[0]
    assert frogs_d15.original_c2 == pytest.approx(0.529076, abs=FROGS_TOL)
    assert frogs_d15.self_avoiding_known == pytest.approx(0.525021, abs=FROGS_TOL)


def test_explicit_columns_coincide_with_inversion_at_degree_two():
    # at d = 2 the explicit upper routes go through the same inversion
    cone = table_cone([2])[0]
    assert cone.upper_c2 == cone.upper_explicit
    frogs = table_frogs([2])[0]
    assert frogs.original_c2 == frogs.original_explicit
    assert frogs.self_avoiding_c2 == frogs.self_avoiding_explicit


def test_empty_degree_list_rejected():
    with pytest.raises(ParameterError):
        table_cone([])
    with pytest.raises(ParameterError):
        table_frogs([])


@pytest.mark.parametrize("model", list(Model))
def test_degree_below_two_rejected_before_any_row(model):
    # the self-avoiding row divides by d + 1, so d = -1 must not reach it
    for d_list in ([-1], [3, -1], [2, 1]):
        with pytest.raises(ParameterError, match="d must be an integer >= 2"):
            bound_table(model, d_list)


@pytest.mark.parametrize("model", list(Model))
def test_bound_table_rows_follow_its_columns(model):
    columns, rows = bound_table(model, iter([2, 3]))
    assert columns[0] == "d"
    assert [row[0] for row in rows] == [2, 3]
    assert all(len(row) == len(columns) for row in rows)

