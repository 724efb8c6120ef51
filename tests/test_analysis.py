import json
import math
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmdlab.analysis import (
    MAX_CLASSIFIERS,
    MAX_SUBSET_DIGITS,
    BigCount,
    _digit_count,
    build_report,
    check_classifier_count,
    check_subset_count,
    decimal_string,
    single_classifier_probability,
    sweep_curves,
    total_classifiers,
    total_combinations,
)
from hmdlab.errors import DomainError


def test_total_classifiers():
    assert total_classifiers(20, 4).exact == 6195
    assert total_classifiers(10, 10).exact == 2**10 - 1
    with pytest.raises(DomainError):
        total_classifiers(4, 5)
    with pytest.raises(DomainError):
        total_classifiers(4, 0)


def test_total_classifiers_enumeration_oracle():
    # all subsets of size 1..2 of a 5-element set: 5 + 10
    count = sum(
        1 for k in (1, 2) for _ in combinations(range(5), k)
    )
    assert total_classifiers(5, 2).exact == count == 15


def test_total_combinations():
    assert total_combinations(2).exact == 1
    assert total_combinations(total_classifiers(3, 1)).exact == 2**3 - 3 - 1
    with pytest.raises(DomainError):
        total_combinations(1)


def test_classifier_count_needs_at_least_two_classifiers():
    for n_h in (0, 1, BigCount.of(1), total_classifiers(1, 1)):
        with pytest.raises(DomainError, match="need at least 2 classifiers"):
            check_classifier_count(n_h)
    assert check_classifier_count(2) == 2
    assert check_classifier_count(total_classifiers(2, 1)) == 2


def test_total_combinations_enumeration_oracle():
    # subsets of size >= 2 of a 15-element set
    count = sum(1 for k in range(2, 16) for _ in combinations(range(15), k))
    assert total_combinations(15).exact == count == 32752


def test_pool_combination_magnitude():
    n_c = total_combinations(total_classifiers(20, 4))
    assert n_c.digits == 1865
    assert 1864.80 <= n_c.log10 <= 1864.95
    mantissa = n_c.exact / 10 ** (n_c.digits - 1)
    assert abs(mantissa - 7.6) <= 0.05


def test_log10_accuracy_on_big_integers():
    n = 2**6195
    got = BigCount.of(n).log10
    assert got == pytest.approx(6195 * math.log10(2), abs=1e-9)
    assert BigCount.of(10**2000).log10 == pytest.approx(2000.0, abs=1e-12)


def test_single_classifier_probability():
    p = single_classifier_probability(20, 8)
    assert p == Fraction(1, 125970)
    assert abs(float(p) - 7.93839e-6) < 1e-11
    assert single_classifier_probability(9, 9) == 1
    assert single_classifier_probability(6, 3) == Fraction(1, 20)
    with pytest.raises(DomainError):
        single_classifier_probability(5, 0)


def test_decimal_string_rendering():
    assert decimal_string(Fraction(1, 4)) == "2.50000e-01"
    assert decimal_string(Fraction(1, 3), sig=4) == "3.333e-01"
    assert decimal_string(Fraction(999999999, 10**9)) == "1.00000e+00"  # rounds up
    # exact past float precision, and no point with one significant digit
    assert decimal_string(Fraction(1, 3), sig=17) == "3.3333333333333333e-01"
    assert decimal_string(Fraction(1, 3), sig=20) == "3.3333333333333333333e-01"
    assert decimal_string(Fraction(2, 3), sig=1) == "7e-01"
    assert decimal_string(Fraction(1), sig=1) == "1e+00"
    assert decimal_string(Fraction(12345)) == "1.23450e+04"  # past 1 too
    rendered = decimal_string(Fraction(1, 125970), sig=12)
    assert abs(float(rendered) - 7.93839e-6) < 1e-11
    with pytest.raises(DomainError):
        decimal_string(Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
def test_decimal_string_close_to_true_value(num, den):
    f = Fraction(num, den)
    if f > 1:
        f = 1 / f
    rendered = decimal_string(f, sig=12)
    assert abs(float(rendered) - float(f)) <= 1e-10 * float(f)


def test_build_report_fields():
    report = build_report()
    assert list(report) == [
        "h_t",
        "r_max",
        "n_h",
        "n_h_log10",
        "n_c",
        "n_c_log10",
        "n_c_digits",
        "mtd_guess_probability_log10",
        "single_h",
        "single_classifier_probability",
        "single_classifier_probability_decimal",
    ]
    assert report["n_h"] == "6195"
    assert report["n_c_digits"] == 1865
    assert report["mtd_guess_probability_log10"] == -report["n_c_log10"]
    assert report["single_classifier_probability"] == "1/125970"
    assert isinstance(report["n_c"], str)
    assert json.loads(json.dumps(report)) == report  # plain JSON values


def test_report_sketches_a_pool_count_past_4000_digits():
    report = build_report(h_t=30)
    assert report["n_c_digits"] > 4000
    mantissa, exponent = report["n_c"].split("e+")
    assert int(exponent) == report["n_c_digits"] - 1
    assert len(mantissa) == 8 and 1 <= float(mantissa) < 10
    frac = report["n_c_log10"] - math.floor(report["n_c_log10"])
    assert float(mantissa) == pytest.approx(10**frac, abs=1e-6)


def test_digit_count_is_computed_once_and_only_when_read(monkeypatch):
    from hmdlab import analysis

    calls = []
    real = analysis._digit_count
    monkeypatch.setattr(
        analysis, "_digit_count", lambda n: calls.append(n) or real(n)
    )
    sweep_curves([20, 40], 4)
    assert calls == []
    # the report reads n_c's digit count twice, for n_c and for n_c_digits,
    # and counts it once. It also counts C(20, 8) = 125970 for the guess
    # denominator's string, and decimal_string counts both parts of 1/125970.
    build_report()
    n_c = total_combinations(total_classifiers(20, 4)).exact
    assert calls == [n_c, 125970, 1, 125970]


def test_digit_count_at_powers_of_ten_and_two():
    for k in range(1, 400):
        for n in (10**k - 1, 10**k):
            assert _digit_count(n) == len(str(n)), n
    for b in range(1, 1400):
        for n in (2**b - 1, 2**b):
            assert _digit_count(n) == len(str(n)), n
    # beyond str()'s digit limit, the count of 10**k is known exactly
    for k in (5000, 123_457, 1_230_603):
        assert _digit_count(10**k - 1) == k
        assert _digit_count(10**k) == k + 1


def test_sweep_curves():
    rows = sweep_curves([20, 40, 60, 80, 100], 4)
    assert rows[0]["n_h"] == 6195
    assert rows[-1]["n_h"] == 4087975  # 100 + 4950 + 161700 + 3921225
    assert rows[-1]["n_h"] > 4 * 10**6
    n_hs = [r["n_h"] for r in rows]
    assert n_hs == sorted(n_hs) and len(set(n_hs)) == len(n_hs)
    assert sweep_curves([20], 4)[0]["n_h"] == total_classifiers(20, 4).exact
    with pytest.raises(DomainError, match="r_max=4, h_t=2"):
        sweep_curves([2], 4)
    with pytest.raises(DomainError, match="need at least 2 classifiers"):
        sweep_curves([20, 1], 1)



def test_report_sketches_a_guess_denominator_past_4000_digits():
    # C(16000, 8000) has 4,815 digits, past Python's 4,300-digit str() limit
    report = build_report(h_t=16000, r_max=1, single_h=8000)
    assert report["single_classifier_probability"] == "1/1.904601e+4814"
    assert report["single_classifier_probability_decimal"] == "5.25044e-4815"
    assert json.loads(json.dumps(report)) == report


def test_total_classifiers_stops_summing_past_the_limit():
    # the whole sum at h_t = r_max = 10,000 takes 14.6 s
    started = time.perf_counter()
    with pytest.raises(DomainError, match=f"exceed the limit of {MAX_CLASSIFIERS}"):
        total_classifiers(10_000, 10_000)
    assert time.perf_counter() - started < 1
    assert total_classifiers(MAX_CLASSIFIERS, 1).exact == MAX_CLASSIFIERS
    with pytest.raises(DomainError, match="exceed the limit"):
        total_classifiers(MAX_CLASSIFIERS + 1, 1)


def test_check_classifier_count_takes_a_count_past_python_str_limit():
    # its one rule is the lower bound, so it never formats a count as text
    assert check_classifier_count(2**15000 - 1) == 2**15000 - 1


def test_subset_count_digits_are_bounded_before_math_comb():
    # C(40000, 10504) has 10,000 digits and C(40000, 10505) 10,001
    assert _digit_count(math.comb(40_000, 10_504)) == MAX_SUBSET_DIGITS
    check_subset_count(40_000, 10_504)
    with pytest.raises(DomainError, match=f"limit of {MAX_SUBSET_DIGITS} digits"):
        check_subset_count(40_000, 10_505)
    with pytest.raises(DomainError, match="need 1 <= h <= h_t"):
        check_subset_count(5, 6)
    # math.comb alone would take 1.35 s here
    started = time.perf_counter()
    with pytest.raises(DomainError, match=f"limit of {MAX_SUBSET_DIGITS} digits"):
        build_report(300_000, 1, 150_000)
    assert time.perf_counter() - started < 1
