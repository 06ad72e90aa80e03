"""Amounts of XRP and issued currencies (IOUs).

Mirrors rippled's ``STAmount``: an amount is either *native* (XRP, an
integer count of drops, 1 XRP = 10^6 drops) or an *issued* amount — a value
with a currency code and an issuer, stored as a normalized
(mantissa, exponent) pair with 15 significant decimal digits.  The integer
representation matters for this reproduction because the de-anonymization
rounding of Table I must be exact: rounding ``0.00123 BTC`` to the nearest
``10^-3`` has to give precisely ``0.001``, not a float approximation.

The ledger records amounts to a precision of one millionth (10^-6), the
resolution the paper quotes for the amount field.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import InvalidAmountError
from repro.ledger.accounts import AccountID
from repro.ledger.currency import XRP, Currency

#: Significant decimal digits carried by an issued amount (as in rippled).
PRECISION_DIGITS = 15
_MANTISSA_MIN = 10 ** (PRECISION_DIGITS - 1)
_MANTISSA_MAX = 10 ** PRECISION_DIGITS - 1
#: Mantissas from this size up (3+ extra digits) take the one-division
#: shortcut in _normalize; below it the digit loop is as cheap.
_SETTLE_MIN = 10 ** (PRECISION_DIGITS + 2)
#: Exponent range of rippled's STAmount.
_EXPONENT_MIN = -96
_EXPONENT_MAX = 80

#: 10**n for every exponent gap two normalized amounts can have.
_POW10 = tuple(10 ** n for n in range(_EXPONENT_MAX - _EXPONENT_MIN + 1))

#: Drops per XRP.
DROPS_PER_XRP = 10 ** 6


def _normalize(mantissa: int, exponent: int) -> Tuple[int, int]:
    """Normalize to 15 significant digits (zero is (0, 0)).

    Extra digits are dropped one at a time, lowest first, each rounding
    half-up; a round-up that leaves more than 15 digits drops the next
    digit by truncation (the ``mag //= 10`` carry branch).  That is not
    a single half-up rounding of all dropped digits, so the fast paths
    below only skip work the digit loop would do without effect:

    * an in-range mantissa is returned untouched;
    * a short one is scaled up by one multiply;
    * one with three or more extra digits loses, in one division, every
      dropped digit up to and including the highest one in 0-3.  Whatever
      state the loop is in when it reaches such a digit, it leaves no
      carry behind, so the digits below it cannot change the result.  The
      loop then runs only over the dropped digits above it, all in 4-9.
    """
    if mantissa == 0:
        return 0, 0
    mag = abs(mantissa)
    if mag < _MANTISSA_MIN:
        shift = PRECISION_DIGITS - len(str(mag))
        mag *= 10 ** shift
        exponent -= shift
    elif mag > _MANTISSA_MAX:
        if mag >= _SETTLE_MIN:
            dropped = str(mag)[PRECISION_DIGITS:]
            settled = len(dropped.lstrip("456789"))
            if settled:
                mag //= 10 ** settled
                exponent += settled
        while mag > _MANTISSA_MAX:
            mag, rem = divmod(mag, 10)
            if rem >= 5:
                mag += 1
                if mag > _MANTISSA_MAX:  # carry, e.g. 999...9 + 1
                    mag //= 10
                    exponent += 1
            exponent += 1
    elif _EXPONENT_MIN <= exponent <= _EXPONENT_MAX:
        return mantissa, exponent
    if exponent < _EXPONENT_MIN:
        return 0, 0
    if exponent > _EXPONENT_MAX:
        raise InvalidAmountError(f"amount overflow: {mantissa}e{exponent}")
    return (mag if mantissa > 0 else -mag), exponent


@dataclass(frozen=True, slots=True)
class Amount:
    """An amount of some currency, optionally tied to an issuer.

    Value is ``mantissa * 10**exponent``.  XRP amounts have ``issuer=None``
    and are exact in drops; issued amounts carry 15 significant digits.
    """

    currency: Currency
    mantissa: int
    exponent: int
    issuer: Optional[AccountID] = None

    def __post_init__(self) -> None:
        if self.issuer is not None and self.currency.is_xrp:
            raise InvalidAmountError("XRP amounts cannot have an issuer")
        m, e = _normalize(self.mantissa, self.exponent)
        if m is not self.mantissa or e != self.exponent:
            object.__setattr__(self, "mantissa", m)
            object.__setattr__(self, "exponent", e)

    # Constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, currency: Currency, issuer: Optional[AccountID] = None) -> "Amount":
        return cls(currency, 0, 0, issuer)

    @classmethod
    def xrp(cls, value: Union[int, float]) -> "Amount":
        """An XRP amount from a value in XRP (not drops)."""
        return cls.from_value(XRP, value)

    @classmethod
    def drops(cls, drops: int) -> "Amount":
        """An XRP amount from an integer number of drops."""
        return cls(XRP, int(drops), -6)

    @classmethod
    def from_value(
        cls,
        currency: Currency,
        value: Union[int, float],
        issuer: Optional[AccountID] = None,
    ) -> "Amount":
        """Build an amount from a Python number.

        Floats are taken at ledger precision (10^-6), matching the amount
        resolution the paper extracts from the public ledger.
        """
        if isinstance(value, int):
            return cls(currency, value, 0, issuer)
        scaled = round(value * 10 ** 6)
        return cls(currency, scaled, -6, issuer)

    # Observers ---------------------------------------------------------------

    @property
    def is_xrp(self) -> bool:
        return self.currency.is_xrp

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def is_negative(self) -> bool:
        return self.mantissa < 0

    @property
    def is_positive(self) -> bool:
        return self.mantissa > 0

    def to_float(self) -> float:
        # Integer scaling keeps the conversion correctly rounded: a single
        # int/int division rounds once, whereas mantissa * 10.0**exponent
        # would compound two float roundings (1000 -> 999.9999999999999).
        if self.exponent >= 0:
            return float(self.mantissa * 10 ** self.exponent)
        return self.mantissa / 10 ** (-self.exponent)

    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

    # Arithmetic --------------------------------------------------------------

    def _check_compatible(self, other: "Amount") -> None:
        if self.currency is not other.currency and self.currency != other.currency:
            raise InvalidAmountError(
                f"currency mismatch: {self.currency} vs {other.currency}"
            )
        if self.issuer is not other.issuer and self.issuer != other.issuer:
            raise InvalidAmountError("issuer mismatch in amount arithmetic")

    def _binop(self, other: "Amount", op) -> "Amount":
        self._check_compatible(other)
        e = self.exponent
        if e == other.exponent:
            return Amount(self.currency, op(self.mantissa, other.mantissa), e, self.issuer)
        # Align exponents on the smaller one so mantissa math is exact.
        a, b = self._aligned(other)
        return Amount(self.currency, op(a, b), min(e, other.exponent), self.issuer)

    def __add__(self, other: "Amount") -> "Amount":
        return self._binop(other, operator.add)

    def __sub__(self, other: "Amount") -> "Amount":
        return self._binop(other, operator.sub)

    def __neg__(self) -> "Amount":
        return Amount(self.currency, -self.mantissa, self.exponent, self.issuer)

    def scaled(self, factor: float) -> "Amount":
        """This amount multiplied by a scalar ``factor``."""
        scaled = round(self.mantissa * factor)
        return Amount(self.currency, scaled, self.exponent, self.issuer)

    def ratio(self, other: "Amount") -> float:
        """``self / other`` as a float (same currency/issuer).

        Computed as a *single* division of the exponent-aligned integer
        mantissas, so the result is the correctly rounded quotient.
        Routing through :meth:`to_float` first would round each operand to
        float and then round the quotient again — three roundings whose
        compounded error can flip the last bit.
        """
        self._check_compatible(other)
        if other.is_zero:
            raise InvalidAmountError("division by zero amount")
        a, b = self._aligned(other)
        return a / b

    def min(self, other: "Amount") -> "Amount":
        """The smaller amount, decided by exact integer comparison.

        Floats only carry 53 bits: two unequal amounts whose aligned
        mantissas differ beyond that would compare equal through
        :meth:`to_float`, making the float-based pick order-dependent.
        """
        self._check_compatible(other)
        a, b = self._aligned(other)
        return self if a <= b else other

    # Comparison (same currency/issuer only) -----------------------------------

    def _aligned(self, other: "Amount") -> Tuple[int, int]:
        """Both mantissas scaled to the smaller exponent (exact integers)."""
        shift = self.exponent - other.exponent
        if shift >= 0:
            return self.mantissa * _POW10[shift], other.mantissa
        return self.mantissa, other.mantissa * _POW10[-shift]

    def _cmp_key(self, other: "Amount") -> Tuple[int, int]:
        self._check_compatible(other)
        return self._aligned(other)

    def __lt__(self, other: "Amount") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "Amount") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: "Amount") -> bool:
        a, b = self._cmp_key(other)
        return a > b

    def __ge__(self, other: "Amount") -> bool:
        a, b = self._cmp_key(other)
        return a >= b

    # Rounding (Table I) --------------------------------------------------------

    def round_to(self, granularity_exponent: int) -> "Amount":
        """Round to the closest ``10**granularity_exponent`` (exact).

        This implements the Table I coarsening: e.g. a EUR amount rounded at
        ``granularity_exponent=2`` snaps to the closest hundred.  Ties round
        half-away-from-zero, matching everyday rounding of prices.
        """
        shift = self.exponent - granularity_exponent
        if shift >= 0:
            # Already at least as coarse in representation; exact rescale.
            return Amount(
                self.currency, self.mantissa * 10 ** shift, granularity_exponent, self.issuer
            )
        divisor = 10 ** (-shift)
        q, r = divmod(abs(self.mantissa), divisor)
        if 2 * r >= divisor:
            q += 1
        return Amount(self.currency, self.sign() * q, granularity_exponent, self.issuer)

    # Rendering -----------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        issuer = f"/{self.issuer.short()}" if self.issuer else ""
        return f"{self.to_float():g} {self.currency.code}{issuer}"

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"Amount({self})"
