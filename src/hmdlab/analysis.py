"""Exact security analysis: counts of distinct counter-subset classifiers,
pool combinations, and attacker guess probabilities. All arithmetic is
arbitrary-precision; base-10 magnitudes ride along for reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError

_LOG10_2 = math.log10(2)

# Largest classifier count n_h whose pool count 2^n_h is computed exactly:
# that integer takes n_h / 8 bytes, and reporting its digit count takes
# seconds at n_h = 4e6 (h_t = 100, r_max = 4) and grows faster than n_h.
MAX_CLASSIFIERS = 10_000_000

# Most decimal digits the subset count C(h_t, h) behind a guess probability
# may have. On a 2-vCPU Xeon, math.comb takes 0.03 s at 10,000 digits and
# 0.24 s at 30,000, and `build_report` takes 0.04 s at this bound.
MAX_SUBSET_DIGITS = 10_000


def _log10_int(n):
    """log10 of a positive big integer. Splits off the low bits so neither
    str() nor float() ever touches a number with millions of digits."""
    shift = max(0, n.bit_length() - 64)
    # n = lead * 2^shift * (1 + eps) with eps < 2^-63; negligible in log10
    return math.log10(n >> shift) + shift * _LOG10_2


def _digit_count(n):
    """Exact number of decimal digits without stringifying n."""
    if n < 10:
        return 1
    # 2^(b-1) <= n < 2^b, so n has lo or lo + 1 digits. The float floor is
    # exact: below 12e6 bits, b * log10(2) stays 2e-8 away from any integer.
    lo = int((n.bit_length() - 1) * _LOG10_2) + 1
    return lo + (n >= 10**lo)


@dataclass(frozen=True)
class BigCount:
    exact: int
    log10: float

    @classmethod
    def of(cls, n):
        return cls(exact=n, log10=_log10_int(n) if n >= 1 else float("-inf"))

    @cached_property
    def digits(self):
        """Exact decimal digit count; computed on first read, then kept."""
        return _digit_count(self.exact)


def total_classifiers(h_t, r_max):
    """Number of distinct classifiers: sum of C(h_t, i) for i in 1..r_max.
    DomainError as soon as the sum passes MAX_CLASSIFIERS, so it never
    sums terms no pool count could use."""
    if not 1 <= r_max <= h_t:
        raise DomainError(f"need 1 <= r_max <= h_t, got r_max={r_max}, h_t={h_t}")
    n = 0
    for i in range(1, r_max + 1):
        n += math.comb(h_t, i)
        if n > MAX_CLASSIFIERS:
            raise DomainError(
                f"the classifiers of h_t={h_t}, r_max={r_max} exceed the limit"
                f" of {MAX_CLASSIFIERS} for exact pool counts"
            )
    return BigCount.of(n)


def check_classifier_count(n_h):
    """n_h (an int or BigCount) as an int; DomainError unless a pool can be
    drawn from it: n_h >= 2."""
    n = n_h.exact if isinstance(n_h, BigCount) else int(n_h)
    if n < 2:
        raise DomainError(f"need at least 2 classifiers for a pool, got {n}")
    return n


def total_combinations(n_h):
    """Number of pools of size >= 2 drawn from n_h classifiers:
    2^n_h - n_h - 1. Exact, so n_h comes from `total_classifiers`, which
    caps it at MAX_CLASSIFIERS."""
    n = check_classifier_count(n_h)
    return BigCount.of((1 << n) - n - 1)


def check_subset_count(h_t, h):
    """DomainError unless 1 <= h <= h_t and C(h_t, h) has at most
    MAX_SUBSET_DIGITS digits, judged from math.lgamma before any exact
    arithmetic runs."""
    if not 1 <= h <= h_t:
        raise DomainError("need 1 <= h <= h_t")
    ln_comb = math.lgamma(h_t + 1) - math.lgamma(h + 1) - math.lgamma(h_t - h + 1)
    if ln_comb / math.log(10) >= MAX_SUBSET_DIGITS:
        raise DomainError(
            f"C({h_t}, {h}) exceeds the limit of {MAX_SUBSET_DIGITS} digits"
            " for exact guess probabilities"
        )


def single_classifier_probability(h_t, h):
    """Chance of guessing a fixed h-counter subset: 1 / C(h_t, h), exact."""
    check_subset_count(h_t, h)
    return Fraction(1, math.comb(h_t, h))


def decimal_string(fraction, sig=6):
    """Scientific-notation rendering of a positive exact rational."""
    if fraction <= 0:
        raise DomainError("expected a positive rational")
    num, den = fraction.numerator, fraction.denominator
    # 10^(exp - 1) < num / den < 10^(exp + 1); step down if below 10^exp
    exp = _digit_count(num) - _digit_count(den)
    if num * 10 ** max(-exp, 0) < den * 10 ** max(exp, 0):
        exp -= 1
    shift = sig - 1 - exp  # scales num / den into [10^(sig - 1), 10^sig)
    rounded = round(Fraction(num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0)))
    if rounded >= 10**sig:
        rounded //= 10
        exp += 1
    digits = str(rounded)
    mantissa = f"{digits[0]}.{digits[1:]}" if sig > 1 else digits
    return f"{mantissa}e{exp:+03d}"


def _big_string(count):
    """Exact decimal string when printable; scientific sketch for counts
    whose digit count dwarfs any report (and Python's int->str limit)."""
    if count.digits <= 4000:
        return str(count.exact)
    frac = count.log10 - math.floor(count.log10)
    return f"{10 ** frac:.6f}e+{int(math.floor(count.log10))}"


def build_report(h_t=20, r_max=4, single_h=8):
    """Classifier and pool counts, and guess probabilities, for h_t counters."""
    n_h = total_classifiers(h_t, r_max)
    n_c = total_combinations(n_h)
    single = single_classifier_probability(h_t, single_h)
    subsets = BigCount.of(single.denominator)  # C(h_t, single_h)
    return {
        "h_t": h_t,
        "r_max": r_max,
        "n_h": str(n_h.exact),
        "n_h_log10": n_h.log10,
        "n_c": _big_string(n_c),
        "n_c_log10": n_c.log10,
        "n_c_digits": n_c.digits,
        "mtd_guess_probability_log10": -n_c.log10,
        "single_h": single_h,
        "single_classifier_probability": f"1/{_big_string(subsets)}",
        "single_classifier_probability_decimal": decimal_string(single),
    }


def sweep_curves(h_t_values, r_max):
    """Per h_t: exact classifier count and log10 of the pool-combination
    count; plot-ready rows."""
    rows = []
    for h_t in h_t_values:
        n_h = total_classifiers(h_t, r_max)
        n_c = total_combinations(n_h)
        rows.append({"h_t": h_t, "n_h": n_h.exact, "n_c_log10": n_c.log10})
    return rows
