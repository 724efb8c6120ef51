"""Exact security analysis: counts of distinct counter-subset classifiers,
pool combinations, and attacker guess probabilities. All arithmetic is
arbitrary-precision; base-10 magnitudes ride along for reporting."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

_LOG10_2 = math.log10(2)

# Largest classifier count n_h whose pool count 2^n_h is computed exactly:
# that integer takes n_h / 8 bytes, and reporting its digit count takes
# seconds at n_h = 4e6 (h_t = 100, r_max = 4) and grows faster than n_h.
MAX_CLASSIFIERS = 10_000_000


def _log10_int(n):
    """log10 of a positive big integer. Splits off the low bits so neither
    str() nor float() ever touches a number with millions of digits."""
    if n <= 0:
        raise DomainError("log10 needs a positive integer")
    shift = max(0, n.bit_length() - 64)
    # n = lead * 2^shift * (1 + eps) with eps < 2^-63; negligible in log10
    return math.log10(n >> shift) + shift * _LOG10_2


def _digit_count(n):
    """Exact number of decimal digits without stringifying n."""
    if n < 10:
        return 1
    d = max(1, int(n.bit_length() * _LOG10_2))
    while 10**d <= n:
        d += 1
    while 10 ** (d - 1) > n:
        d -= 1
    return d


@dataclass(frozen=True)
class BigCount:
    exact: int
    log10: float

    @classmethod
    def of(cls, n):
        return cls(exact=n, log10=_log10_int(n) if n >= 1 else float("-inf"))

    @property
    def digits(self):
        return _digit_count(self.exact)


def binomial(n, k):
    """Exact C(n, k)."""
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"C({n}, {k}) is undefined")
    return BigCount.of(math.comb(n, k))


def total_classifiers(h_t, r_max):
    """Number of distinct classifiers: sum of C(h_t, i) for i in 1..r_max."""
    if not 1 <= r_max <= h_t:
        raise DomainError("need 1 <= r_max <= h_t")
    return BigCount.of(sum(math.comb(h_t, i) for i in range(1, r_max + 1)))


def check_classifier_count(n_h):
    """n_h (an int or BigCount) as an int; DomainError above
    MAX_CLASSIFIERS."""
    n = n_h.exact if isinstance(n_h, BigCount) else int(n_h)
    if n > MAX_CLASSIFIERS:
        raise DomainError(
            f"{n} classifiers exceed the limit of {MAX_CLASSIFIERS}"
            " for exact pool counts"
        )
    return n


def total_combinations(n_h):
    """Number of pools of size >= 2 drawn from n_h classifiers:
    2^n_h - n_h - 1."""
    n = check_classifier_count(n_h)
    if n < 2:
        raise DomainError("need at least 2 classifiers")
    return BigCount.of((1 << n) - n - 1)


def single_classifier_probability(h_t, h):
    """Chance of guessing a fixed h-counter subset: 1 / C(h_t, h), exact."""
    if not 1 <= h <= h_t:
        raise DomainError("need 1 <= h <= h_t")
    return Fraction(1, math.comb(h_t, h))


def decimal_string(fraction, sig=6):
    """Scientific-notation rendering of an exact rational in (0, 1]."""
    if fraction <= 0:
        raise DomainError("expected a positive rational")
    num, den = fraction.numerator, fraction.denominator
    exp = 0
    while num < den:
        num *= 10
        exp -= 1
    rounded = round(Fraction(num * 10 ** (sig - 1), den))
    if rounded >= 10**sig:
        rounded //= 10
        exp += 1
    mantissa = rounded / 10 ** (sig - 1)
    return f"{mantissa:.{sig - 1}f}e{exp:+03d}"


def _big_string(count):
    """Exact decimal string when printable; scientific sketch for counts
    whose digit count dwarfs any report (and Python's int->str limit)."""
    if count.digits <= 4000:
        return str(count.exact)
    frac = count.log10 - math.floor(count.log10)
    return f"{10 ** frac:.6f}e+{int(math.floor(count.log10))}"


@dataclass(frozen=True)
class CombinatoricsReport:
    h_t: int
    r_max: int
    n_h: BigCount
    n_c: BigCount
    mtd_guess_probability_log10: float
    single_h: int
    single_classifier_prob: Fraction

    def to_json(self):
        return json.dumps(
            {
                "h_t": self.h_t,
                "r_max": self.r_max,
                "n_h": str(self.n_h.exact),
                "n_h_log10": self.n_h.log10,
                "n_c": _big_string(self.n_c),
                "n_c_log10": self.n_c.log10,
                "n_c_digits": self.n_c.digits,
                "mtd_guess_probability_log10": self.mtd_guess_probability_log10,
                "single_h": self.single_h,
                "single_classifier_probability": (
                    f"1/{self.single_classifier_prob.denominator}"
                ),
                "single_classifier_probability_decimal": decimal_string(
                    self.single_classifier_prob
                ),
            },
            indent=2,
        )


def build_report(h_t=20, r_max=4, single_h=8):
    n_h = total_classifiers(h_t, r_max)
    n_c = total_combinations(n_h)
    return CombinatoricsReport(
        h_t=h_t,
        r_max=r_max,
        n_h=n_h,
        n_c=n_c,
        mtd_guess_probability_log10=-n_c.log10,
        single_h=single_h,
        single_classifier_prob=single_classifier_probability(h_t, single_h),
    )


def sweep_curves(h_t_values, r_max):
    """Per h_t: exact classifier count and log10 of the pool-combination
    count; plot-ready rows."""
    rows = []
    for h_t in h_t_values:
        if h_t < r_max:
            raise DomainError(f"h_t={h_t} below r_max={r_max}")
        n_h = total_classifiers(h_t, r_max)
        n_c = total_combinations(n_h)
        rows.append({"h_t": h_t, "n_h": n_h.exact, "n_c_log10": n_c.log10})
    return rows


def write_sweep_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["h_t", "n_h", "n_c_log10"])
        for r in rows:
            w.writerow([r["h_t"], r["n_h"], f"{r['n_c_log10']:.6f}"])
