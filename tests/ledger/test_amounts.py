"""Tests for the STAmount-style amount representation."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAmountError
from repro.ledger.accounts import account_from_name
from repro.ledger.amounts import DROPS_PER_XRP, Amount, _normalize
from repro.ledger.currency import BTC, EUR, USD, XRP


class TestConstruction:
    def test_xrp_from_value(self):
        amount = Amount.xrp(1.5)
        assert amount.to_float() == pytest.approx(1.5)
        assert amount.is_xrp

    def test_drops(self):
        assert Amount.drops(DROPS_PER_XRP).to_float() == pytest.approx(1.0)

    def test_xrp_cannot_have_issuer(self):
        with pytest.raises(InvalidAmountError):
            Amount(XRP, 1, 0, issuer=account_from_name("gw"))

    def test_ledger_precision_is_micro(self):
        # The ledger records amounts at 1e-6 (the paper's stated precision).
        amount = Amount.from_value(USD, 0.1234567)
        assert amount.to_float() == pytest.approx(0.123457)

    def test_zero(self):
        zero = Amount.zero(USD)
        assert zero.is_zero and not zero.is_positive and not zero.is_negative

    def test_normalization_idempotent(self):
        a = Amount(USD, 123456789, -3)
        b = Amount(USD, a.mantissa, a.exponent)
        assert (a.mantissa, a.exponent) == (b.mantissa, b.exponent)


class TestArithmetic:
    def test_add_sub(self):
        a = Amount.from_value(USD, 10.5)
        b = Amount.from_value(USD, 2.25)
        assert (a + b).to_float() == pytest.approx(12.75)
        assert (a - b).to_float() == pytest.approx(8.25)

    def test_negation(self):
        a = Amount.from_value(USD, 3.0)
        assert (-a).to_float() == pytest.approx(-3.0)
        assert (-a).is_negative

    def test_currency_mismatch_rejected(self):
        with pytest.raises(InvalidAmountError):
            Amount.from_value(USD, 1) + Amount.from_value(EUR, 1)

    def test_issuer_mismatch_rejected(self):
        a = Amount.from_value(USD, 1, issuer=account_from_name("g1"))
        b = Amount.from_value(USD, 1, issuer=account_from_name("g2"))
        with pytest.raises(InvalidAmountError):
            a + b

    def test_scaled(self):
        assert Amount.from_value(USD, 10).scaled(0.25).to_float() == pytest.approx(2.5)

    def test_ratio(self):
        a = Amount.from_value(USD, 10)
        b = Amount.from_value(USD, 4)
        assert a.ratio(b) == pytest.approx(2.5)

    def test_ratio_by_zero_rejected(self):
        with pytest.raises(InvalidAmountError):
            Amount.from_value(USD, 1).ratio(Amount.zero(USD))

    def test_min(self):
        a = Amount.from_value(USD, 10)
        b = Amount.from_value(USD, 4)
        assert a.min(b) is b

    def test_comparisons(self):
        a = Amount.from_value(USD, 1)
        b = Amount.from_value(USD, 2)
        assert a < b and a <= b and b > a and b >= a
        assert not (b < a)


class TestRounding:
    """Table I rounding semantics — these must be exact."""

    def test_round_to_tens(self):
        assert Amount.from_value(EUR, 123.45).round_to(1).to_float() == 120.0

    def test_round_to_hundreds(self):
        assert Amount.from_value(EUR, 163.45).round_to(2).to_float() == 200.0

    def test_round_to_thousandths_btc(self):
        assert Amount.from_value(BTC, 0.0123).round_to(-3).to_float() == pytest.approx(0.012)

    def test_round_half_away_from_zero(self):
        assert Amount.from_value(USD, 15.0).round_to(1).to_float() == 20.0
        assert Amount.from_value(USD, -15.0).round_to(1).to_float() == -20.0

    def test_small_amount_rounds_to_zero(self):
        # An XRP latte-sized payment vanishes at the weak-group Max of 1e5.
        assert Amount.from_value(XRP, 4.5).round_to(5).is_zero

    def test_huge_mtl_amount(self):
        spam = Amount.from_value(Amount.from_value(USD, 0).currency, 0)  # placeholder
        mtl = Amount(BTC, 1234567891, 0)
        assert mtl.round_to(7).to_float() == pytest.approx(1.23e9)

    def test_rounding_preserves_currency_and_issuer(self):
        issuer = account_from_name("gw")
        amount = Amount.from_value(USD, 55.0, issuer=issuer)
        rounded = amount.round_to(1)
        assert rounded.currency == USD and rounded.issuer == issuer


class TestOverflow:
    def test_exponent_overflow_rejected(self):
        with pytest.raises(InvalidAmountError):
            Amount(USD, 10 ** 15, 80)

    def test_underflow_becomes_zero(self):
        assert Amount(USD, 1, -200).is_zero


class TestExactNumerics:
    """Regression pins for the PR 3 precision fixes.

    ``min`` and ``ratio`` used to route through ``to_float()``; the cases
    here are chosen so the float detour gives a *different* answer than
    exact integer arithmetic — they fail on the pre-fix code.
    """

    def test_ratio_is_correctly_rounded_single_division(self):
        # to_float()/to_float() rounds three times; the exact aligned-int
        # quotient differs in the last bit for this pair.
        a = Amount(USD, 912381323017539, 9)
        b = Amount(USD, 357564042624565, 0)
        exact = (912381323017539 * 10 ** 9) / 357564042624565
        assert a.ratio(b) == exact
        assert a.to_float() / b.to_float() != exact

    def test_ratio_more_double_rounding_cases(self):
        for m1, e1, m2 in (
            (294788211859887, 11, 717892751856593),
            (982316779551687, 8, 933734492216487),
            (985457430577449, 7, 472827266592590),
        ):
            a, b = Amount(USD, m1, e1), Amount(USD, m2, 0)
            assert a.ratio(b) == (m1 * 10 ** e1) / m2

    def test_min_never_consults_floats(self, monkeypatch):
        # Exactness by construction: min must decide on aligned integer
        # mantissas even when float conversion is unavailable.
        a = Amount(USD, 999999999999999, 2)
        b = Amount(USD, 999999999999998, 2)

        def boom(self):  # pragma: no cover - called only on regression
            raise AssertionError("min() routed through to_float()")

        monkeypatch.setattr(Amount, "to_float", boom)
        assert a.min(b) is b
        assert b.min(a) is b

    def test_min_of_adjacent_15_digit_mantissas(self):
        # Aligned values differ by one unit in the 15th digit at a large
        # exponent — far beyond 2^53 once scaled.
        a = Amount(USD, 999999999999999, 40)
        b = Amount(USD, 999999999999998, 40)
        assert a.min(b) is b and not (a <= b)

    def test_ordering_exact_across_exponents(self):
        lo = Amount(USD, 100000000000000, 1)   # 1e15
        hi = Amount(USD, 100000000000001, 1)   # 1e15 + 10
        assert lo < hi and hi > lo and lo.min(hi) is lo


def _normalize_loop(mantissa, exponent):
    """The digit-at-a-time normalization, kept as the specification.

    ``_normalize`` must return exactly this.  Each dropped digit rounds
    half-up on its own; a round-up that leaves more than 15 digits drops
    the next digit by truncation (``mag //= 10``).
    """
    if mantissa == 0:
        return 0, 0
    sign = 1 if mantissa > 0 else -1
    mag = abs(mantissa)
    while mag < 10 ** 14:
        mag *= 10
        exponent -= 1
    while mag > 10 ** 15 - 1:
        mag, rem = divmod(mag, 10)
        if rem >= 5:
            mag += 1
            if mag > 10 ** 15 - 1:
                mag //= 10
                exponent += 1
        exponent += 1
    if exponent < -96:
        return 0, 0
    if exponent > 80:
        raise InvalidAmountError(f"amount overflow: {mantissa}e{exponent}")
    return sign * mag, exponent


def _outcome(normalize, mantissa, exponent):
    try:
        return normalize(mantissa, exponent)
    except InvalidAmountError:
        return "overflow"


@st.composite
def _mantissas(draw):
    """1-45 significant digits, either sign, with a trailing-zero run.

    Digits come from the full alphabet or from 4-9/5,9/0,4,5,9 only, so
    runs of round-ups and carries through 9s are common, not rare.
    """
    alphabet = draw(st.sampled_from(("0123456789", "456789", "59", "0459")))
    digits = draw(st.text(alphabet=alphabet, min_size=1, max_size=45))
    zeros = draw(st.integers(min_value=0, max_value=45 - len(digits)))
    sign = draw(st.sampled_from((1, -1)))
    return sign * int(digits) * 10 ** zeros


class TestNormalizeMatchesDigitLoop:
    @settings(max_examples=1000, deadline=None)
    @given(mantissa=_mantissas(), exponent=st.integers(min_value=-140, max_value=110))
    def test_equals_loop(self, mantissa, exponent):
        assert _outcome(_normalize, mantissa, exponent) == _outcome(
            _normalize_loop, mantissa, exponent
        )

    @pytest.mark.parametrize(
        "mantissa, exponent, expected, single_half_up",
        [
            # The 9 below the top dropped digit rounds up, so that 5 is
            # truncated instead of rounding "...208" up.
            (-485551485653208592737869347, -31, (-485551485653208, -19), -485551485653209),
            # The 7 rounds up and the 6 above it is truncated.
            (12345678901234567, -6, (123456789012345, -4), 123456789012346),
            # The 5 rounds up, carries through the truncated 9 and makes
            # the 4 a 5: the loop rounds up where half-up rounds down.
            (100000000000000495, 0, (100000000000001, 3), 100000000000000),
        ],
    )
    def test_loop_is_not_single_half_up(self, mantissa, exponent, expected, single_half_up):
        assert _normalize(mantissa, exponent) == expected
        assert _normalize_loop(mantissa, exponent) == expected
        assert expected[0] != single_half_up

    @pytest.mark.parametrize(
        "mantissa, exponent, expected",
        [
            (999999999999999500, 0, (100000000000000, 4)),  # carry to 16 digits
            (10 ** 44, -120, (10 ** 14, -90)),  # 45 digits, exact drop
            (123, -84, (123000000000000, -96)),  # lowest exponent kept
            (123, -85, (0, 0)),  # underflow after scaling up
            (-10 ** 15, -97, (-10 ** 14, -96)),
            (-10 ** 15, -98, (0, 0)),  # underflow after dropping a digit
        ],
    )
    def test_boundaries(self, mantissa, exponent, expected):
        assert _normalize(mantissa, exponent) == expected == _normalize_loop(mantissa, exponent)

    def test_overflow_after_dropping_digits(self):
        assert _normalize(10 ** 20, 74) == (10 ** 14, 80)
        with pytest.raises(InvalidAmountError):
            _normalize(10 ** 20, 75)


class TestConstructionCounter:
    """A counter patched onto ``Amount.__post_init__`` sees every new amount.

    The benchmark counts ``ledger.amount.constructions`` this way, so each
    operation that builds an amount must run ``__post_init__`` once, and
    the equal-exponent arithmetic shortcut must not bypass it.
    """

    @pytest.fixture()
    def built(self, monkeypatch):
        made = []
        original = Amount.__dict__["__post_init__"]

        def counted(self):
            made.append(self)
            original(self)

        monkeypatch.setattr(Amount, "__post_init__", counted)
        return made

    def test_every_operation_counted(self, built):
        a = Amount(USD, 123456789012345, -6)
        b = Amount(USD, 5, -6)  # scaled up: a different exponent from a
        c = Amount(USD, 100000000000000, -6)  # the same exponent as a
        built.clear()
        results = [
            a + b,
            a + c,
            a - b,
            a - c,
            a.round_to(2),
            Amount.from_value(USD, 1.25),
            Amount.from_value(USD, 3),
            Amount.zero(USD),
            -a,
            a.scaled(0.5),
        ]
        assert len(built) == len(results)
        assert all(made is result for made, result in zip(built, results))

    def test_min_builds_nothing(self, built):
        a = Amount(USD, 4, 0)
        b = Amount(USD, 7, 0)
        built.clear()
        assert a.min(b) is a and b.min(a) is a
        assert built == []


class TestSlots:
    def test_no_instance_dict(self):
        assert not hasattr(Amount.from_value(USD, 1.5), "__dict__")

    def test_pickle_and_deepcopy_round_trip(self):
        amount = Amount.from_value(USD, 12.5, issuer=account_from_name("gw"))
        for twin in (pickle.loads(pickle.dumps(amount)), copy.deepcopy(amount)):
            assert twin == amount
            assert (twin.mantissa, twin.exponent) == (amount.mantissa, amount.exponent)

    def test_still_frozen(self):
        with pytest.raises(AttributeError):
            Amount.from_value(USD, 1).mantissa = 2
