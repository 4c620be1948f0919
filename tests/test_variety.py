"""Model factories, invariants, and the two text grammars."""

from fractions import Fraction

import pytest

from ulrich_kit import (
    default_window,
    elliptic_curve,
    format_rational,
    format_sheaf,
    format_variety,
    hyperplane_model,
    invariants,
    line_bundle,
    parse_rational,
    parse_sheaf,
    parse_variety,
    product_proj,
    proj_space,
    quadric,
    rank1_surface,
)
from ulrich_kit.errors import (
    MalformedDescriptor,
    MalformedModel,
    ParseError,
    UnsupportedModel,
)
from ulrich_kit.sheaves import SemistableEC, Spinor, validate_descriptor
from ulrich_kit.variety import surface_data


class TestFactories:
    def test_projective_space_record(self):
        inv = invariants(proj_space(3))
        assert inv == {
            "kind": "pn",
            "dim": 3,
            "deg": 1,
            "chi0": 1,
            "canonical_coeff": Fraction(-4),
            "k0_rank": 4,
            "ambient_dim": 3,
            "factors": None,
        }

    def test_quadric_record(self):
        q4 = quadric(4)
        assert (q4.dim, q4.deg, q4.canonical_coeff) == (4, 2, Fraction(-4))
        assert q4.k0_rank == 6  # even quadrics carry the extra spinor class
        assert quadric(3).k0_rank == 4
        assert quadric(3).ambient_dim == 4

    def test_product_record(self):
        p11 = product_proj(1, 1)
        assert (p11.dim, p11.deg, p11.k0_rank) == (2, 2, 4)
        assert p11.canonical_coeff == Fraction(-2)
        p12 = product_proj(1, 2)
        assert (p12.dim, p12.deg) == (3, 3)
        # K is not proportional to H on an unbalanced product
        assert p12.canonical_coeff is None
        assert p12.k0_rank == 6

    def test_quadric_family_facts(self):
        assert [quadric(n).spinor_signs for n in (2, 3, 4, 5)] == [
            ("+", "-"), (None,), ("+", "-"), (None,)
        ]
        assert [quadric(n).spinor_rank for n in (2, 3, 4, 5, 6, 7)] == [1, 2, 2, 4, 4, 8]
        assert quadric(2).product_form_model == product_proj(1, 1)
        # one model, built once, not one per read
        assert quadric(2).product_form_model is quadric(2).product_form_model
        others = (proj_space(2), quadric(3), product_proj(1, 1), rank1_surface(4, 0, 2),
                  elliptic_curve(3))
        for model in others:
            assert model.product_form_model is None
            if model.kind != "quadric":
                assert model.spinor_signs == ()

    def test_k0_box(self):
        assert proj_space(2).k0_box == ((0,), (1,), (2,))
        assert product_proj(1, 1).k0_box == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert product_proj(2, 1).k0_box == ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
        for model in (quadric(3), rank1_surface(4, 0, 2), elliptic_curve(3)):
            assert model.k0_box is None

    def test_surface_record(self):
        k3 = rank1_surface(4, 0, 2)
        assert surface_data(k3) == (4, Fraction(0), 2)
        assert k3.k0_rank is None
        frac = rank1_surface(5, Fraction(-1, 2), 1)
        assert frac.canonical_coeff == Fraction(-1, 2)

    def test_elliptic_record(self):
        e3 = elliptic_curve(3)
        assert invariants(e3) == {
            "kind": "elliptic",
            "dim": 1,
            "deg": 3,
            "chi0": 0,
            "canonical_coeff": Fraction(0),
            "k0_rank": 2,
            "ambient_dim": 2,
            "factors": None,
        }

    def test_factory_validation(self):
        with pytest.raises(MalformedModel):
            proj_space(0)
        with pytest.raises(MalformedModel):
            quadric(1)
        with pytest.raises(MalformedModel):
            product_proj(0, 2)
        with pytest.raises(MalformedModel):
            rank1_surface(0, -1, 1)
        with pytest.raises(MalformedModel):
            elliptic_curve(2)

    def test_surface_data_needs_a_surface(self):
        with pytest.raises(UnsupportedModel):
            surface_data(proj_space(3))
        with pytest.raises(UnsupportedModel):
            surface_data(product_proj(1, 2))  # dim 3

    def test_default_window_covers_every_check(self):
        for model in (proj_space(4), quadric(3), elliptic_curve(3)):
            lo, hi = default_window(model)
            assert lo <= -2 * model.dim and hi >= model.dim


class TestHyperplaneChain:
    def test_projective_chain(self):
        assert hyperplane_model(proj_space(4)) == proj_space(3)
        assert hyperplane_model(proj_space(2)) == proj_space(1)

    def test_quadric_chain(self):
        assert hyperplane_model(quadric(4)) == quadric(3)
        assert hyperplane_model(quadric(3)) == quadric(2)

    def test_chain_bottoms_out(self):
        with pytest.raises(UnsupportedModel):
            hyperplane_model(proj_space(1))
        with pytest.raises(UnsupportedModel):
            hyperplane_model(quadric(2))
        with pytest.raises(UnsupportedModel):
            hyperplane_model(elliptic_curve(3))


class TestVarietyGrammar:
    def test_round_trips(self):
        for text in (
            "pn:3",
            "quadric:4",
            "prod:1x1",
            "prod:2x3",
            "surface:d=4,i=0,chi=2",
            "surface:d=5,i=-1/2,chi=1",
            "elliptic:3",
        ):
            assert format_variety(parse_variety(text)) == text

    def test_parse_matches_factories(self):
        assert parse_variety("pn:2") == proj_space(2)
        assert parse_variety("quadric:3") == quadric(3)
        assert parse_variety("prod:1x2") == product_proj(1, 2)
        assert parse_variety("surface:d=4,i=0,chi=2") == rank1_surface(4, 0, 2)
        assert parse_variety("elliptic:5") == elliptic_curve(5)

    def test_malformed_specs(self):
        for text in (
            "pn",
            "pn:x",
            "pn:0",
            "prod:3",
            "prod:1x",
            "surface:d=4",
            "surface:d=4,i=0,chi=two",
            "plane:2",
            "elliptic:2",
        ):
            with pytest.raises(MalformedModel):
                parse_variety(text)


class TestSheafGrammar:
    def test_round_trips(self):
        for text in (
            "O(3)",
            "O(-1,2)",
            "S",
            "S+",
            "2*S-",
            "ss(2,-3)",
            "ss(1,0,trivial)",
            "ss(1,0,nontrivial)",
            "O(1)+2*O(-2)",
            "S++S-",
        ):
            assert format_sheaf(parse_sheaf(text)) == text

    def test_sum_merging(self):
        assert parse_sheaf("O(1)+O(1)") == parse_sheaf("2*O(1)")
        assert parse_sheaf("O(2)+O(1)+O(2)") == parse_sheaf("2*O(2)+O(1)")

    def test_malformed_expressions(self):
        for text in ("", "O(1)+", "+O(1)", "O(a)", "ss(1)", "2**O(1)", "T"):
            with pytest.raises(ParseError):
                parse_sheaf(text)

    def test_descriptor_model_validation(self):
        with pytest.raises(MalformedDescriptor):
            validate_descriptor(line_bundle(1), product_proj(1, 1))
        with pytest.raises(MalformedDescriptor):
            validate_descriptor(line_bundle(1, 2), proj_space(2))
        with pytest.raises(MalformedDescriptor):
            validate_descriptor(Spinor("+"), proj_space(2))
        with pytest.raises(MalformedDescriptor):
            validate_descriptor(SemistableEC(0, 1), elliptic_curve(3))
        with pytest.raises(MalformedDescriptor):
            validate_descriptor(SemistableEC(1, 1), proj_space(1))
        # valid combinations raise nothing
        validate_descriptor(line_bundle(1, -2), product_proj(1, 3))
        validate_descriptor(Spinor(None), quadric(3))
        validate_descriptor(SemistableEC(2, 0), elliptic_curve(4))


class TestRationalText:
    def test_round_trip(self):
        for text in ("0", "3", "-2", "1/2", "-7/3"):
            assert format_rational(parse_rational(text)) == text

    def test_integers_print_bare(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-6, 3)) == "-2"

    def test_parse_rejects_junk(self):
        for text in ("", "1/0", "a/b", "one"):
            with pytest.raises(ParseError):
                parse_rational(text)

    def test_decimal_input_is_exact(self):
        assert parse_rational("1.5") == Fraction(3, 2)
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_exponents_and_separators_are_refused(self):
        # Fraction reads these, and "1e1000000000" would ask for 10**(10**9)
        for text in ("1e3", "1E-2", "2_0", "1e1000000000", "1.", "inf", "nan"):
            with pytest.raises(ParseError):
                parse_rational(text)
