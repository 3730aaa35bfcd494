"""The JSON form of results: exact integers and rationals, and report dataclasses.

A report is a frozen dataclass whose JSON is its fields.  :class:`Report`
gives it ``to_dict``, which maps every field, in declaration order, by one
rule:

* a tuple or a list becomes a list, its items mapped by the same rule;
* a :class:`~fractions.Fraction` becomes ``{"num": ..., "den": ...}`` with
  decimal strings (:func:`rat_to_json`), so no size is lost;
* a value with a ``to_dict`` (a nested report) becomes that dict;
* anything else (``int``, ``str``, ``bool``, ``float``, ``None``) is kept.

A report whose JSON reshapes one field overrides ``to_dict`` as
``{**super().to_dict(), <field>: ...}``; one whose JSON is not its fields
writes its own.
"""
from __future__ import annotations

from dataclasses import fields
from fractions import Fraction


def decimal_str(x: int) -> str:
    """Decimal digits of ``x`` at any size.

    ``str(x)`` refuses integers longer than ``sys.get_int_max_str_digits()``
    digits (4300 by default, never fewer than 640); that limit stays in place
    for parsing input.  Here ``x`` is split by divmod over a power of ten
    until each part is short enough for ``str``.
    """
    if x < 0:
        return "-" + decimal_str(-x)
    if x.bit_length() <= 2000:  # at most 603 digits
        return str(x)
    k = x.bit_length() * 3 // 20  # about half the digit count
    hi, lo = divmod(x, 10**k)
    return decimal_str(hi) + decimal_str(lo).zfill(k)


def rat_to_json(x: Fraction) -> dict:
    return {"num": decimal_str(x.numerator), "den": decimal_str(x.denominator)}


def rat_from_json(d: dict) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def _encode(value):
    """``value`` mapped by the rule of :class:`Report`."""
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, Fraction):
        return rat_to_json(value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


class Report:
    """Mixin for report dataclasses: ``to_dict`` maps each field by :func:`_encode`."""

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}
