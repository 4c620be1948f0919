"""The sheaf grammar reads the same language as a term-by-term reader.

``reference_parse`` is the earlier parser of ``sheaves.parse_sheaf``,
kept here as an independent reference: it matches one atom at a time,
splits the atom's text again to read its fields, and merges the terms
afterwards.  Its one change is that an error's position counts in the
text as given, leading whitespace included.  Every expression drawn,
well formed or not, must give the reference's descriptor, or its error
type and message.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    DirectSum,
    LineBundle,
    SemistableEC,
    Spinor,
    elliptic_curve,
    parse_sheaf,
    product_proj,
    proj_space,
    quadric,
    validate_descriptor,
)
from ulrich_kit.errors import MalformedDescriptor, ParseError, UlrichKitError

_ATOM_RE = re.compile(
    r"""
    (?:(?P<mult>\d+)\s*\*\s*)?
    (?P<atom>
        O\(\s*-?\d+(?:\s*,\s*-?\d+)?\s*\)
      | ss\(\s*\d+\s*,\s*-?\d+\s*(?:,\s*(?:trivial|nontrivial)\s*)?\)
      | S(?:[+-](?=\s*(?:\+|$)))?
    )
    """,
    re.VERBOSE,
)


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ParseError("sheaf expression holds an integer too long to read") from None


def _atom(text):
    if text.startswith("O("):
        return LineBundle(tuple(_int(p) for p in text[2:-1].split(",")))
    if text.startswith("ss("):
        inner = [p.strip() for p in text[3:-1].split(",")]
        trivial = inner[2] == "trivial" if len(inner) == 3 else None
        return SemistableEC(_int(inner[0]), _int(inner[1]), trivial)
    return Spinor(text[1] if len(text) == 2 else None)


def reference_parse(text):
    parts = []
    pos, expect_atom = 0, True
    stripped = text.strip()
    offset = len(text) - len(text.lstrip())
    while pos < len(stripped):
        if stripped[pos].isspace():
            pos += 1
            continue
        if not expect_atom:
            if stripped[pos] != "+":
                raise ParseError(f"expected '+' at position {pos + offset} in {text!r}")
            pos += 1
            expect_atom = True
            continue
        match = _ATOM_RE.match(stripped, pos)
        if match is None:
            raise ParseError(f"cannot read a sheaf atom at position {pos + offset} in {text!r}")
        mult = _int(match.group("mult") or "1")
        parts.append((_atom(match.group("atom")), mult))
        pos = match.end()
        expect_atom = False
    if expect_atom:
        raise ParseError(f"empty or dangling sheaf expression {text!r}")
    merged = {}
    for atom, mult in parts:
        if mult:
            merged[atom] = merged.get(atom, 0) + mult
    if not merged:
        raise MalformedDescriptor("empty direct sum")
    items = tuple(merged.items())
    if len(items) == 1 and items[0][1] == 1:
        return items[0][0]
    return DirectSum(items)


def outcome(read, *args):
    try:
        return ("ok", read(*args))
    except UlrichKitError as exc:
        return (type(exc), str(exc))


# decimal digits past the interpreter's 4300-digit limit, and at it
LONG = ("9" * 5000, "0" * 4999 + "7", "1" * 4300, "1" * 4301)
SPACES = ("", "", "", " ", "  ", "\t", "\n", "\u2003", "\x85")
SHORT = ("0", "0", "1", "1", "2", "3", "12", "007", "٣", "12345678901234567890")
# one number in ten is long, so most expressions read to the end
NUMBERS = st.integers(0, 9).flatmap(lambda k: st.sampled_from(LONG if k == 0 else SHORT))
SIGNED = st.one_of(NUMBERS, NUMBERS.map("-".__add__))
STRAYS = ("x", "?", "*", ",", "(", ")", "+", "-", "S", "O(", "ss(", "0", "trivial", "²")


@st.composite
def expressions(draw):
    def sp():
        return draw(st.sampled_from(SPACES))

    def atom():
        kind = draw(st.sampled_from(("O", "O2", "ss", "ss3", "S", "S+", "S-")))
        if kind == "O":
            return f"O({sp()}{draw(SIGNED)}{sp()})"
        if kind == "O2":
            return f"O({sp()}{draw(SIGNED)}{sp()},{sp()}{draw(SIGNED)}{sp()})"
        if kind.startswith("ss"):
            word = draw(st.sampled_from(("trivial", "nontrivial")))
            extra = f",{sp()}{word}{sp()}" if kind == "ss3" else ""
            return f"ss({sp()}{draw(NUMBERS)}{sp()},{sp()}{draw(SIGNED)}{sp()}{extra})"
        return kind

    terms = []
    for _ in range(draw(st.integers(0, 4))):
        term = atom()
        if draw(st.booleans()):
            term = f"{draw(NUMBERS)}{sp()}*{sp()}{term}"
        terms.append(term)
    text = sp()
    for k, term in enumerate(terms):
        text += (f"{sp()}+{sp()}" if k else "") + term
    text += sp()
    mutation = draw(st.sampled_from(("none", "none", "none", "truncate", "insert", "delete", "swap")))
    if mutation == "none" or not text:
        return text
    at = draw(st.integers(0, len(text) - 1))
    if mutation == "truncate":
        return text[:at]
    if mutation == "insert":
        return text[:at] + draw(st.sampled_from(STRAYS)) + text[at:]
    if mutation == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:]


TOKENS = st.lists(st.sampled_from(STRAYS + SPACES + ("S+", "S-", "1", "2*", "O(1)", "ss(1,0")), max_size=10)
MODELS = [proj_space(2), quadric(2), quadric(3), product_proj(1, 1), elliptic_curve(3)]


@settings(max_examples=1500, deadline=None)
@given(st.one_of(expressions(), TOKENS.map("".join)))
def test_grammar_reads_what_the_reference_reads(text):
    assert outcome(parse_sheaf, text) == outcome(reference_parse, text)


@settings(max_examples=300, deadline=None)
@given(expressions(), st.sampled_from(MODELS))
def test_a_model_validates_after_the_whole_text_is_read(text, model):
    def read_then_validate(text):
        desc = reference_parse(text)
        validate_descriptor(desc, model)
        return desc

    assert outcome(parse_sheaf, text, model) == outcome(read_then_validate, text)


@pytest.mark.parametrize("text", [
    "  O(1)  ", "\tO( -1 ,\n2 )\n", "0*O(1)", "0*O(1) + 0*S", "O(1) + 0*O(1)", "0*O(1) + O(2) + O(1)",
    "O(1)+O(01)", "2*O(1) + 3 * O(1)", "O(1) + O(2) + O(1)", "S+O(-1)", "S+ + S-", "S++O(1)",
    "S+", "S-", "S+-", "S +", "ss(2, -3)", "ss( 1 ,0 , trivial )", "ss(1,0,nontrivial)+ss(1,0)",
    "", "   ", "+", "O(1)+", "O(1) + ", "O(1", "O(", "ss(1", "S S", "O(1) x", "  O(1) x", "  O(1)+ ?",
    "O(1)O(2)", "x", "1*", "2 * ", "O(1,2,3)", "O(a)", "ss(-1,0)", "O(1)" + "+O(1)" * 40,
    f"O({'9' * 5000})", f"{'9' * 5000}*S", f"0*O({'9' * 5000})", f"O(1) x {'9' * 5000}",
])
def test_listed_expressions_read_as_the_reference_reads_them(text):
    assert outcome(parse_sheaf, text) == outcome(reference_parse, text)


def test_the_reference_reads_the_known_forms():
    assert reference_parse("S+O(-1)") == DirectSum(((Spinor(None), 1), (LineBundle((-1,)), 1)))
    assert reference_parse("S++O(1)") == DirectSum(((Spinor("+"), 1), (LineBundle((1,)), 1)))
    assert reference_parse(" 0*S + O(1)+O(01) ") == DirectSum(((LineBundle((1,)), 2),))
    assert reference_parse("ss(1,0,trivial)") == SemistableEC(1, 0, True)
