"""Refusals and values that no other test reaches: each refusal keeps
its error type, its message and the exit code the CLI gives it, and
each value is pinned where the branch that gives it is the only one."""

import json
from fractions import Fraction

import pytest

from ulrich_kit import (
    AbstractSheaf,
    DirectSum,
    ExternalTensor,
    SemistableEC,
    abstract_ulrich_sheaf,
    direct_sum,
    direct_sum_complexes,
    elliptic_curve,
    ext_dimension,
    formal_complex,
    format_sheaf,
    is_ulrich_object,
    line_bundle,
    parse_sheaf,
    parse_variety,
    proj_space,
    quadric,
    quadric_decompose,
    rank1_surface,
    sheaf_table,
    tensor_line,
    validate_descriptor,
)
from ulrich_kit.cli import _load_complex, _parse_window, build_parser, main
from ulrich_kit.cohomology import _piece_tables, ulrich_table
from ulrich_kit.errors import (
    IncompleteTable,
    MalformedDescriptor,
    MalformedModel,
    NoDualRule,
    ParseError,
    UnsupportedQuadricDim,
)
from ulrich_kit.generators import lattice_rank
from ulrich_kit.sheaves import product_form, rank_of
from ulrich_kit.ulrich import _ext_serre_partner
from ulrich_kit.variety import default_window

P2 = proj_space(2)
P4 = proj_space(4)
NOT_A_DESCRIPTOR = object()


def _glue_entry_not_an_object(tmp_path):
    path = tmp_path / "object.json"
    path.write_text(json.dumps({"variety": "pn:2", "sheaves": {"0": "O(0)"}, "glue": [1]}))
    return _load_complex(str(path))


def _degree_key_not_an_integer(tmp_path):
    path = tmp_path / "object.json"
    path.write_text(json.dumps({"variety": "pn:2", "sheaves": {"zero": "O(0)"}}))
    return _load_complex(str(path))


def _read_past_the_window(build):
    # the piece table holds the ends of each piece only, yet refuses a
    # twist past its window as the whole table does
    def read(_):
        desc = parse_sheaf("O(0) + O(3)", P4)
        return build(desc).first_nonzero(range(105, 90, -1))

    return read


def _even_quadric_split(_):
    # an abstract rank-2 Ulrich table on Q^4 is well formed and passes;
    # only the split of S+ and S- there is out of the kit's scope
    model = quadric(4)
    window = default_window(model)
    table = ulrich_table(model.dim, {0: model.deg * 2}, window)
    E = formal_complex(model, {0: AbstractSheaf(rank=2, label="rank-2", table=table)})
    assert is_ulrich_object(E, "both").passed
    return quadric_decompose(E)


REFUSALS = {
    "negative multiplicity": (
        lambda _: direct_sum((line_bundle(0), -1)),
        MalformedDescriptor,
        "negative multiplicity -1",
        2,
    ),
    "only zero multiplicities": (
        lambda _: direct_sum((line_bundle(0), 0), (line_bundle(1), 0)),
        MalformedDescriptor,
        "empty direct sum",
        2,
    ),
    "hand-built empty sum": (
        lambda _: validate_descriptor(DirectSum(()), P2),
        MalformedDescriptor,
        "empty direct sum",
        2,
    ),
    "hand-built zero multiplicity": (
        lambda _: validate_descriptor(DirectSum(((line_bundle(0), 0),)), P2),
        MalformedDescriptor,
        "multiplicity must be >= 1, got 0",
        2,
    ),
    "external tensor off a product": (
        lambda _: validate_descriptor(ExternalTensor(line_bundle(0), line_bundle(1)), P2),
        MalformedDescriptor,
        "external tensors live on product models",
        2,
    ),
    "negative abstract rank": (
        lambda _: validate_descriptor(AbstractSheaf(rank=-1), P2),
        MalformedDescriptor,
        "abstract rank must be >= 0, got -1",
        2,
    ),
    "twist vector of the wrong length": (
        lambda _: tensor_line(line_bundle(0), (1, 2), P2),
        MalformedDescriptor,
        "twist vector (1, 2) has wrong length for pn:2",
        2,
    ),
    "product form off the quadric surface": (
        lambda _: product_form(line_bundle(0), quadric(3)),
        MalformedDescriptor,
        "product form applies to the quadric surface only",
        2,
    ),
    "summands without a plus": (
        lambda _: parse_sheaf("O(1) O(2)", P2),
        ParseError,
        "expected '+' at position 5 in 'O(1) O(2)'",
        2,
    ),
    "summands without a plus after leading whitespace": (
        lambda _: parse_sheaf("  O(1) x"),
        ParseError,
        "expected '+' at position 7 in '  O(1) x'",
        2,
    ),
    "no atom after a plus, after leading whitespace": (
        lambda _: parse_sheaf("  O(1)+ ?"),
        ParseError,
        "cannot read a sheaf atom at position 8 in '  O(1)+ ?'",
        2,
    ),
    "a digit separator in a model dimension": (
        lambda _: parse_variety("pn:1_0"),
        MalformedModel,
        "malformed model spec 'pn:1_0'",
        2,
    ),
    "a digit separator in a window": (
        lambda _: _parse_window("-1_0:0"),
        ParseError,
        "window must look like a:b, got '-1_0:0'",
        2,
    ),
    "a digit separator in a rank": (
        lambda _: build_parser().parse_args(["chern-solve", "--surface", "d=4,i=0,chi=2", "--rank", "1_0"]),
        ParseError,
        "ulrich-kit chern-solve: argument --rank: invalid int value: '1_0'",
        2,
    ),
    "empty sum of complexes": (
        lambda _: direct_sum_complexes(),
        MalformedDescriptor,
        "empty direct sum of complexes",
        2,
    ),
    "coordinate vectors of unequal length": (
        lambda _: lattice_rank([(Fraction(1),), (Fraction(1), Fraction(2))]),
        MalformedDescriptor,
        "coordinate vectors of unequal length",
        2,
    ),
    "fractional chi(O)": (
        lambda _: rank1_surface(4, 0, 1.5),
        MalformedModel,
        "chi(O) must be an integer, got 1.5",
        2,
    ),
    "glue entry that is not an object": (
        _glue_entry_not_an_object,
        ParseError,
        "malformed glue entry 1",
        2,
    ),
    "sheaf degree key that is not an integer": (
        _degree_key_not_an_integer,
        ParseError,
        "sheaf degrees must be integers, got 'zero'",
        2,
    ),
    "piece-table read past its window": (
        _read_past_the_window(lambda desc: _piece_tables((desc,), P4, (-100, 100), (0, -4, -13))[0]),
        IncompleteTable,
        "twist 105 outside window (-100, 100)",
        2,
    ),
    "whole-table read past its window": (
        _read_past_the_window(lambda desc: sheaf_table(desc, P4, (-100, 100))),
        IncompleteTable,
        "twist 105 outside window (-100, 100)",
        2,
    ),
    "validating a non-descriptor": (
        lambda _: validate_descriptor(NOT_A_DESCRIPTOR, P2),
        MalformedDescriptor,
        f"unknown descriptor {NOT_A_DESCRIPTOR!r}",
        2,
    ),
    "rank of a non-descriptor": (
        lambda _: rank_of(NOT_A_DESCRIPTOR, P2),
        MalformedDescriptor,
        f"unknown descriptor {NOT_A_DESCRIPTOR!r}",
        2,
    ),
    "text of a non-descriptor": (
        lambda _: format_sheaf(NOT_A_DESCRIPTOR),
        MalformedDescriptor,
        f"unknown descriptor {NOT_A_DESCRIPTOR!r}",
        2,
    ),
    "surface spec with a non-ASCII digit": (
        lambda _: parse_variety("surface:d=\u0664,i=0,chi=2"),  # an Arabic-Indic 4
        MalformedModel,
        "malformed surface spec 'surface:d=\u0664,i=0,chi=2'",
        2,
    ),
    "spinor split on an even quadric past Q^2": (
        _even_quadric_split,
        UnsupportedQuadricDim,
        "spinor decomposition needs an odd quadric or Q^2, not quadric:4",
        3,
    ),
}


@pytest.mark.parametrize("read, error, message, code", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_keeps_its_type_message_and_exit_code(tmp_path, read, error, message, code):
    with pytest.raises(error) as caught:
        read(tmp_path)
    assert type(caught.value) is error and str(caught.value) == message
    assert caught.value.exit_code == code


# d, i (numerator and denominator) and chi each read ASCII digits only:
# "\u0664" is an Arabic-Indic 4, "\u0660" a 0 and "\u0662" a 2
@pytest.mark.parametrize(
    "spec",
    [
        "d=\u0664,i=0,chi=2",
        "d=4,i=\u0660,chi=2",
        "d=4,i=1/\u0662,chi=2",
        "d=4,i=0,chi=\u0662",
    ],
)
def test_a_surface_spec_with_a_non_ascii_digit_is_malformed(capsys, spec):
    with pytest.raises(MalformedModel) as caught:
        parse_variety(f"surface:{spec}")
    assert str(caught.value) == f"malformed surface spec 'surface:{spec}'"
    assert main(["chern-solve", "--surface", spec, "--rank", "2"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["payload"] is None and report["error"] == str(caught.value)


def test_ext_between_distinct_rank_one_data_of_equal_degree_vanishes():
    ec = elliptic_curve(3)
    nontrivial, trivial = SemistableEC(1, 3, False), SemistableEC(1, 3, True)
    assert [ext_dimension(nontrivial, trivial, k, ec) for k in (0, 1)] == [0, 0]


def test_ext_from_genus_one_data_into_an_abstract_sheaf_has_no_rule():
    ec = elliptic_curve(3)
    with pytest.raises(NoDualRule) as caught:
        ext_dimension(SemistableEC(1, 3, False), AbstractSheaf(rank=1), 0, ec)
    assert str(caught.value) == "abstract(abstract,rank=1) has no genus-one oracle"


def test_ext_into_an_abstract_table_skips_the_serre_cross_check():
    # the abstract side has no canonical twist, so only the primary rule speaks
    stored = AbstractSheaf(rank=1, table=sheaf_table(line_bundle(1), P2, default_window(P2)))
    assert ext_dimension(line_bundle(0), stored, 0, P2) == 3
    assert _ext_serre_partner(line_bundle(0), stored, P2) is None
    # nor has a surface: Hom(O(-t), F) = h^0(F(t)) = 2(t+1)(t+2) for the
    # rank-one Ulrich table on a degree-4 surface
    k3 = rank1_surface(4, 0, 2)
    F = abstract_ulrich_sheaf(k3, 1)
    for t, sections in ((0, 4), (1, 12)):
        source = line_bundle(-t)
        assert [ext_dimension(source, F, k, k3) for k in range(3)] == [sections, 0, 0]
        assert _ext_serre_partner(source, F, k3) is None


def test_model_facts_absent_off_their_family():
    assert rank1_surface(4, 0, 2).canonical_twists is None
    assert P2.factor_models is None
    assert quadric(3).factor_models is None
