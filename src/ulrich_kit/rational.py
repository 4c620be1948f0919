"""Exact rational helpers shared by the numeric layers and the CLI."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

# "p", "-p", "p/q" or a decimal; no exponents or "_" separators, which
# would let a short text ask ``Fraction`` for an enormous number
_INTEGER = r"[+-]?[0-9]+"
_RATIONAL = re.compile(_INTEGER + r"(/[0-9]+)?|[+-]?[0-9]*\.[0-9]+")
_INT = re.compile(_INTEGER)


def parse_int(text: str) -> int:
    """Parse an integer of the input layer: an optional sign and ASCII
    digits, no "_" separators or other digits; ValueError otherwise, as
    ``int`` raises, past its digit limit too."""
    body = text.strip()
    if _INT.fullmatch(body):
        return int(body)
    raise ValueError(f"not an integer: {text!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p", "p/q" or a decimal such as "1.5" into a Fraction."""
    body = text.strip()
    if _RATIONAL.fullmatch(body):
        try:
            return Fraction(body)
        except (ValueError, ZeroDivisionError):  # "p/0", or past int's digit limit
            pass
    raise ParseError(f"not a rational number: {text!r}")


def format_rational(value: Fraction | int) -> str:
    """Canonical string form: integers bare, otherwise "p/q" in lowest terms."""
    return str(Fraction(value))
