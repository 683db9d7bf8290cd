"""Graded counting recursion and the window bijection check."""

from fractions import Fraction as F

import pytest

from hallwin import (
    builtin_quiver,
    primitive_dims,
    sym_count,
    verify_bijection,
    window_count,
    window_count_table,
    window_generators,
)

Q3 = builtin_quiver("tripled-jordan")


def test_sym_count():
    assert sym_count(1, 0) == 1
    assert sym_count(1, 5) == 1
    assert sym_count(3, 2) == 6
    assert sym_count(0, 1) == 0
    assert sym_count(0, 0) == 1
    assert sym_count(4, 3) == 20


def test_window_count_frozen():
    assert [window_count(1, w) for w in range(4)] == [1, 1, 1, 1]
    assert [window_count(2, w) for w in range(4)] == [2, 1, 2, 1]
    assert [window_count(3, w) for w in range(4)] == [5, 3, 3, 5]
    assert [window_count(4, w) for w in range(4)] == [16, 10, 11, 10]


def test_window_count_counts_the_window_generators():
    # window_count counts the capped walk; window_generators also re-tests
    # each walked tuple with the exact membership test
    for d in range(1, 8):
        for w in range(-d, d + 1):
            assert window_count(d, w) == len(window_generators(Q3, (d,), w)), (d, w)


def test_window_count_periodicity():
    for d in range(1, 6):
        for w in range(-6, 7):
            assert window_count(d, w) == window_count(d, w + d)


def test_window_count_table_shape():
    table = window_count_table(3, 4)
    assert table[(2, 4)] == 2
    assert table[(3, 0)] == 5
    assert set(table) == {(d, w) for d in (1, 2, 3) for w in range(-4, 5)}


@pytest.mark.parametrize("d_max, w_max", [(0, 0), (-3, 1), (1, -1)])
def test_count_tables_refuse_an_empty_range(d_max, w_max):
    for table in (window_count_table, primitive_dims):
        with pytest.raises(ValueError, match="d_max|w_max"):
            table(d_max, w_max)


def test_primitive_dims_frozen():
    p = primitive_dims(4, 4)
    assert p[(1, 0)] == 1
    assert p[(2, 1)] == 1
    assert all(p[(3, w)] == 3 for w in range(5))
    assert all(p[(4, w)] == 10 for w in range(5))


def test_primitive_dims_nonnegative_and_reconstructs():
    dmax, wmax = 4, 4
    p = primitive_dims(dmax, wmax)
    assert all(v >= 0 for v in p.values())
    # re-derive each window count from the primitive dims and compare
    from collections import Counter

    from hallwin import enum_U

    for d in range(1, dmax + 1):
        for w in range(-wmax, wmax + 1):
            total = 0
            for parts in enum_U(d, w):
                term = 1
                for part, mult in Counter(parts).items():
                    term *= sym_count(p[part], mult)
                total += term
            assert total == window_count(d, w)


def test_verify_bijection_small():
    report = verify_bijection(2, 0, 8)
    assert report.ok
    assert report.domain_size == 9
    assert report.image_size == 9
    assert report.target_size == 9
    assert report.violations == ()


def test_verify_bijection_d1():
    report = verify_bijection(1, 2, 6)
    assert report.ok
    assert report.domain_size == 1


def test_verify_bijection_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_bijection(2, 0, 0)
