"""Numerical classes, Riemann-Roch, and the Ulrich class solver.

The solver is checked against a Cramer-rule solution of the same two
vanishing conditions built independently here, and euler_char is
checked against the cohomology tables wherever both exist.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    AbstractSheaf,
    DirectSum,
    ExternalTensor,
    LineBundle,
    NumClass,
    SemistableEC,
    Spinor,
    chern_admissible,
    class_of,
    direct_sum,
    elliptic_curve,
    euler_char,
    formal_complex,
    line_bundle,
    product_proj,
    proj_space,
    quadric,
    rank1_surface,
    sheaf_table,
    slope,
    twist_class,
    ulrich_chern_solve,
)
from ulrich_kit.chern import euler_supported
from ulrich_kit.errors import (
    Indeterminate,
    MalformedDescriptor,
    ModelMismatch,
    UnsupportedModel,
)


def chi_surface(model, r, e1, e2):
    """Riemann-Roch on a surface, written out once more for the tests."""
    d, i_x, chi0 = model.deg, model.canonical_coeff, model.chi0
    return e2 * d - Fraction(i_x * d, 2) * e1 + r * chi0


def cramer_ulrich_class(model, r):
    """Solve chi(E(-1)) = chi(E(-2)) = 0 by Cramer's rule.

    chi(E(-j)) = (e2 - j*e1 + r*j^2/2)*d - (i*d/2)*(e1 - j*r) + r*chi0,
    linear in (e1, e2) with right-hand side collecting the r terms.
    """
    d, i_x, chi0 = model.deg, model.canonical_coeff, model.chi0
    rows = []
    for j in (1, 2):
        a = -j * d - Fraction(i_x * d, 2)  # e1 coefficient
        b = Fraction(d)  # e2 coefficient
        rhs = -(Fraction(r * j * j, 2) * d + Fraction(i_x * d, 2) * j * r + r * chi0)
        rows.append((a, b, rhs))
    (a1, b1, c1), (a2, b2, c2) = rows
    det = a1 * b2 - a2 * b1
    assert det != 0
    e1 = (c1 * b2 - c2 * b1) / det
    e2 = (a1 * c2 - a2 * c1) / det
    return e1, e2


SURFACES = [
    proj_space(2),
    quadric(2),
    product_proj(1, 1),
    rank1_surface(4, 0, 2),  # quartic K3 numbers
    rank1_surface(3, -1, 1),  # cubic surface numbers
    rank1_surface(5, 1, 1),
    rank1_surface(2, Fraction(-1, 2), 1),
]


class TestClassOf:
    def test_line_bundles_on_pn(self):
        p2 = proj_space(2)
        c = class_of(line_bundle(3), p2)
        assert (c.r, c.e1, c.e2) == (1, Fraction(3), Fraction(9, 2))
        c = class_of(line_bundle(-1), p2)
        assert (c.r, c.e1, c.e2) == (1, Fraction(-1), Fraction(1, 2))

    def test_spinor_classes_frozen(self):
        q2 = quadric(2)
        c = class_of(Spinor("+"), q2)
        assert (c.r, c.e1, c.e2) == (1, Fraction(1, 2), Fraction(0))
        q3 = quadric(3)
        c = class_of(Spinor(None), q3)
        assert (c.r, c.e1, c.e2) == (2, Fraction(1), Fraction(0))

    def test_product_projection(self):
        p11 = product_proj(1, 1)
        c = class_of(LineBundle((1, 0)), p11)
        assert (c.r, c.e1, c.e2) == (1, Fraction(1, 2), Fraction(0))
        c = class_of(LineBundle((1, 1)), p11)
        assert (c.r, c.e1, c.e2) == (1, Fraction(1), Fraction(1, 2))

    def test_additivity_over_sums(self):
        p2 = proj_space(2)
        total = class_of(direct_sum((line_bundle(1), 2), line_bundle(-1)), p2)
        a = class_of(line_bundle(1), p2)
        b = class_of(line_bundle(-1), p2)
        assert total.r == 2 * a.r + b.r
        assert total.e1 == 2 * a.e1 + b.e1
        assert total.e2 == 2 * a.e2 + b.e2

    def test_complex_alternates_signs(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(1), -1: line_bundle(0)})
        c = class_of(E, p2)
        assert (c.r, c.e1) == (0, Fraction(1))
        with pytest.raises(ModelMismatch):
            class_of(E, proj_space(3))

    def test_negative_degrees_keep_the_class_exact(self):
        p2 = proj_space(2)
        E = formal_complex(
            p2, {0: line_bundle(1), -1: line_bundle(2), -3: line_bundle(-1)}
        )
        c = class_of(E, p2)
        assert type(c.r) is int
        assert type(c.e1) is Fraction and type(c.e2) is Fraction
        assert (c.r, c.e1, c.e2) == (-1, Fraction(0), Fraction(-2))

    @pytest.mark.parametrize(
        "desc, model",
        [
            (DirectSum(((AbstractSheaf(rank=1), 1), (LineBundle((1, 2)), 1))), proj_space(2)),
            (ExternalTensor(AbstractSheaf(rank=1), LineBundle((1, 2))), product_proj(1, 1)),
        ],
        ids=["sum", "tensor"],
    )
    def test_the_whole_descriptor_is_validated_before_any_part_is_classed(self, desc, model):
        # the first part has no class rule, the second is malformed: the
        # malformed part is what the caller hears about
        with pytest.raises(MalformedDescriptor):
            class_of(desc, model)

    def test_coordinates_are_exact(self):
        k3 = rank1_surface(4, 0, 2)
        c = NumClass(k3, 2, 3, 1)
        assert type(c.e1) is Fraction and type(c.e2) is Fraction
        assert isinstance(slope(c), Fraction) and slope(c) == Fraction(3, 2)
        for e1, e2 in ((1.5, Fraction(0)), (Fraction(0), 0.5), (True, Fraction(0)), ("1", 0)):
            with pytest.raises(MalformedDescriptor):
                NumClass(k3, 1, e1, e2)

    def test_curve_classes_have_no_e2(self):
        e3 = elliptic_curve(3)
        c = class_of(SemistableEC(2, 5), e3)
        assert (c.r, c.e1, c.e2) == (2, Fraction(5, 3), None)
        with pytest.raises(MalformedDescriptor):
            NumClass(e3, 1, Fraction(0), Fraction(0))
        with pytest.raises(MalformedDescriptor):
            NumClass(proj_space(2), 1, Fraction(0))


line_sums = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=3
)
PRODUCTS = [product_proj(a, b) for a in range(1, 4) for b in range(1, 5 - a)]


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(PRODUCTS), left=line_sums, right=line_sums)
def test_external_tensor_class_matches_its_expanded_sum(model, left, right):
    L = direct_sum(*((line_bundle(a), m) for a, m in left))
    R = direct_sum(*((line_bundle(b), n) for b, n in right))
    expanded = direct_sum(
        *((LineBundle((a, b)), m * n) for a, m in left for b, n in right)
    )
    assert class_of(ExternalTensor(L, R), model) == class_of(expanded, model)


def test_external_tensor_class_on_a_plane_times_a_line():
    # H = H1 + H2 on P^2 x P^1: H^3 = 3, H1.H^2 = 2, H1^2.H = 1, and
    # ch(O(1) x O) = 1 + H1 + H1^2/2
    model = product_proj(2, 1)
    c = class_of(ExternalTensor(line_bundle(1), line_bundle(0)), model)
    assert (c.r, c.e1, c.e2) == (1, Fraction(2, 3), Fraction(1, 6))
    assert c == class_of(LineBundle((1, 0)), model)


def hilbert_coefficients(values: list[int]) -> list[Fraction]:
    """Coefficients, constant first, of the polynomial of degree
    len(values) - 1 through (t, values[t]) for t = 0, 1, ...: Newton's
    forward differences, expanded."""
    diffs, row = [], [Fraction(v) for v in values]
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs = [Fraction(0)] * len(values)
    binomial = [Fraction(1)]  # C(t, k) = t (t-1) ... (t-k+1) / k!, constant first
    for k, delta in enumerate(diffs):
        for j, c in enumerate(binomial):
            coeffs[j] += delta * c
        # C(t, k+1) = C(t, k) (t - k) / (k + 1)
        binomial = [(a - k * b) / (k + 1) for a, b in zip([0, *binomial], [*binomial, 0])]
    return coeffs


product_sheaves = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(LineBundle),
    st.tuples(line_sums, line_sums).map(
        lambda pair: ExternalTensor(
            direct_sum(*((line_bundle(a), m) for a, m in pair[0])),
            direct_sum(*((line_bundle(b), n) for b, n in pair[1])),
        )
    ),
)


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(PRODUCTS), desc=product_sheaves)
def test_product_e1_is_the_hilbert_polynomial_subleading_coefficient(model, desc):
    # chi(E(t)) = r*deg*t^m/m! + (e1*deg - r*K.H^(m-1)/2) t^(m-1)/(m-1)! + ...
    a, b = model.factors
    m = model.dim
    k_dot = -(a + 1) * comb(m - 1, a - 1) - (b + 1) * comb(m - 1, a)
    table = sheaf_table(desc, model, (0, m))
    coeffs = hilbert_coefficients([table.euler(t) for t in range(m + 1)])
    c = class_of(desc, model)
    assert coeffs[m] == Fraction(c.r * model.deg, factorial(m))
    assert coeffs[m - 1] == (c.e1 * model.deg - Fraction(c.r * k_dot, 2)) / factorial(m - 1)


class TestTwistAction:
    def test_matches_tensoring_on_tables(self):
        p2 = proj_space(2)
        for k in range(-3, 4):
            direct = class_of(line_bundle(k), p2)
            acted = twist_class(class_of(line_bundle(0), p2), k)
            assert (direct.r, direct.e1, direct.e2) == (acted.r, acted.e1, acted.e2)

    @settings(max_examples=50, deadline=None)
    @given(
        r=st.integers(min_value=1, max_value=5),
        e1=st.fractions(min_value=-5, max_value=5, max_denominator=4),
        e2=st.fractions(min_value=-5, max_value=5, max_denominator=4),
        j=st.integers(min_value=-6, max_value=6),
        k=st.integers(min_value=-6, max_value=6),
    )
    def test_group_action(self, r, e1, e2, j, k):
        c = NumClass(rank1_surface(4, 0, 2), r, e1, e2)
        one_step = twist_class(twist_class(c, j), k)
        both = twist_class(c, j + k)
        assert (one_step.e1, one_step.e2) == (both.e1, both.e2)
        back = twist_class(twist_class(c, j), -j)
        assert (back.e1, back.e2) == (c.e1, c.e2)


class TestEulerCharacteristic:
    def test_matches_tables_on_every_supported_surface(self):
        cases = [
            (proj_space(2), line_bundle(2)),
            (proj_space(2), direct_sum((line_bundle(-1), 3))),
            (quadric(2), Spinor("+")),
            (quadric(2), line_bundle(-2)),
            (product_proj(1, 1), LineBundle((2, -1))),
        ]
        for model, desc in cases:
            assert euler_supported(model)
            table = sheaf_table(desc, model, (-5, 5))
            for t in range(-5, 6):
                c = twist_class(class_of(desc, model), t)
                assert euler_char(c) == table.euler(t), (model.kind, t)

    def test_matches_tables_on_the_curve(self):
        e3 = elliptic_curve(3)
        desc = SemistableEC(2, 1)
        table = sheaf_table(desc, e3, (-3, 3))
        for t in range(-3, 4):
            c = twist_class(class_of(desc, e3), t)
            assert euler_char(c) == table.euler(t)

    def test_unsupported_in_higher_dimension(self):
        p3 = proj_space(3)
        with pytest.raises(UnsupportedModel):
            euler_char(class_of(line_bundle(1), p3))
        assert not euler_supported(p3)
        assert not euler_supported(product_proj(1, 2))

    def test_abstract_class_without_data_is_indeterminate(self):
        from ulrich_kit import AbstractSheaf

        with pytest.raises(Indeterminate):
            class_of(AbstractSheaf(rank=2), rank1_surface(4, 0, 2))

    def test_abstract_class_must_carry_the_data_rank(self):
        # else the section count would read the rank and the slope the class
        k3 = rank1_surface(4, 0, 2)
        sheaf = AbstractSheaf(rank=2, num_class=NumClass(k3, 3, 3, 1))
        with pytest.raises(MalformedDescriptor) as caught:
            formal_complex(k3, {0: sheaf})
        assert str(caught.value) == "attached class has rank 3, the data rank 2"


class TestUlrichSolver:
    def test_matches_cramer_on_every_surface(self):
        for model in SURFACES:
            for r in (1, 2, 3, 5):
                got = ulrich_chern_solve(model, r)
                e1, e2 = cramer_ulrich_class(model, r)
                assert (got.e1, got.e2) == (e1, e2), (model.kind, r)

    def test_closed_form(self):
        for model in SURFACES:
            d, i_x, chi0 = model.deg, model.canonical_coeff, model.chi0
            for r in (1, 2, 4):
                c = ulrich_chern_solve(model, r)
                assert c.e1 == Fraction(r, 2) * (i_x + 3)
                assert c.e2 * d == -r * chi0 + Fraction(r * d, 4) * (
                    i_x * i_x + 3 * i_x + 4
                )

    def test_solved_class_is_admissible(self):
        for model in SURFACES:
            c = ulrich_chern_solve(model, 2)
            assert chern_admissible(c)
            assert euler_char(twist_class(c, -1)) == 0
            assert euler_char(twist_class(c, -2)) == 0

    def test_universal_twisted_euler_polynomial(self):
        # chi(E(t)) = (r d / 2)(t + 1)(t + 2) for the solved class
        for model in SURFACES:
            for r in (1, 3):
                c = ulrich_chern_solve(model, r)
                for t in range(-4, 5):
                    want = Fraction(r * model.deg, 2) * (t + 1) * (t + 2)
                    assert euler_char(twist_class(c, t)) == want

    def test_known_instances(self):
        # the structure sheaf of the plane is its own rank-one solution
        c = ulrich_chern_solve(proj_space(2), 1)
        assert (c.e1, c.e2) == (Fraction(0), Fraction(0))
        assert class_of(line_bundle(0), proj_space(2)).e1 == c.e1
        # the spinor line bundle solves rank one on the quadric surface
        c = ulrich_chern_solve(quadric(2), 1)
        assert (c.e1, c.e2) == (Fraction(1, 2), Fraction(0))
        # quartic K3 numbers
        c = ulrich_chern_solve(rank1_surface(4, 0, 2), 1)
        assert (c.e1, c.e2 * 4) == (Fraction(3, 2), Fraction(2))

    def test_admissibility_detects_perturbations(self):
        model = rank1_surface(4, 0, 2)
        c = ulrich_chern_solve(model, 2)
        assert chern_admissible(c)
        off = NumClass(model, c.r, c.e1 + 1, c.e2)
        assert not chern_admissible(off)
        off = NumClass(model, c.r, c.e1, c.e2 + Fraction(1, 4))
        assert not chern_admissible(off)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=10),
    i_x=st.integers(min_value=-4, max_value=4),
    chi0=st.integers(min_value=-3, max_value=3),
    r=st.integers(min_value=1, max_value=6),
)
def test_solver_closed_form_everywhere(d, i_x, chi0, r):
    model = rank1_surface(d, i_x, chi0)
    c = ulrich_chern_solve(model, r)
    assert c.e1 == Fraction(r * (i_x + 3), 2)
    assert c.e2 * d == -r * chi0 + Fraction(r * d, 4) * (i_x * i_x + 3 * i_x + 4)
    assert chern_admissible(c)
