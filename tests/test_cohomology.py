"""Oracle tests for the twisted-cohomology layer.

The reference values here are computed by independent means (monomial
counting, long-exact-sequence bookkeeping against the ambient space,
explicit convolution) and frozen, so a regression in the oracles cannot
hide behind the code under test.
"""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    AbstractSheaf,
    CohomologyTable,
    LineBundle,
    SemistableEC,
    Spinor,
    bott_table,
    chi_proj,
    direct_sum,
    elliptic_curve,
    line_bundle,
    parse_sheaf,
    product_proj,
    proj_space,
    quadric,
    quadric_line_table,
    rank1_surface,
    sheaf_column,
    sheaf_table,
    spinor_table,
)
from ulrich_kit.errors import (
    IncompleteTable,
    MalformedDescriptor,
    NoOracle,
    UnknownSlopeZero,
    UnsupportedQuadricDim,
)
from ulrich_kit.cohomology import ulrich_table
from ulrich_kit.sheaves import product_form, rank_of


def count_monomials(n: int, k: int) -> int:
    """Global sections of O(k) on P^n by listing degree-k monomials."""
    if k < 0:
        return 0
    return sum(1 for _ in itertools.combinations_with_replacement(range(n + 1), k))


def chi_by_polynomial(n: int, k: int) -> Fraction:
    """Euler characteristic from the classical product formula."""
    num = 1
    for j in range(1, n + 1):
        num *= k + j
    return Fraction(num, factorial(n))


def ambient_line_table(n: int, k: int) -> dict[int, int]:
    """Line-bundle cohomology on P^n written from scratch for the tests."""
    out = {}
    if k >= 0:
        out[0] = comb(n + k, n)
    if k <= -n - 1:
        out[n] = comb(-k - 1, n)
    return out


def quadric_by_les(n: int, k: int) -> dict[int, int]:
    """Cohomology of O_Q(k) on the dim-n quadric from the ambient
    restriction sequence 0 -> O(k-2) -> O(k) -> O_Q(k) -> 0 on P^{n+1}.

    The connecting maps vanish because ambient cohomology of line
    bundles is concentrated in degrees 0 and n+1 only.
    """
    amb_mid = ambient_line_table(n + 1, k)
    amb_sub = ambient_line_table(n + 1, k - 2)
    out = {}
    h0 = amb_mid.get(0, 0) - amb_sub.get(0, 0)
    hn = amb_sub.get(n + 1, 0) - amb_mid.get(n + 1, 0)
    if h0:
        out[0] = h0
    if hn:
        out[n] = hn
    return out


class TestProjectiveLine:
    def test_sections_by_monomial_count(self):
        for n in range(1, 5):
            for k in range(0, 7):
                assert bott_table(n, k).get(0, 0) == count_monomials(n, k)

    def test_top_cohomology_by_serre(self):
        for n in range(1, 5):
            for k in range(-12, 13):
                table = bott_table(n, k)
                dual = bott_table(n, -k - n - 1)
                for i in range(0, n + 1):
                    assert table.get(i, 0) == dual.get(n - i, 0), (n, k, i)

    def test_no_intermediate_cohomology(self):
        for n in range(2, 5):
            for k in range(-12, 13):
                for i in range(1, n):
                    assert bott_table(n, k).get(i, 0) == 0

    def test_euler_characteristic_matches_polynomial(self):
        for n in range(1, 6):
            for k in range(-10, 11):
                table = bott_table(n, k)
                chi = sum((-1) ** i * h for i, h in table.items())
                assert chi == chi_by_polynomial(n, k)
                assert chi_proj(n, k) == chi_by_polynomial(n, k)

    def test_zero_region_is_exactly_the_gap(self):
        for n in range(1, 5):
            for k in range(-n, 0):
                assert bott_table(n, k) == {}

    def test_frozen_values(self):
        assert bott_table(2, 0) == {0: 1}
        assert bott_table(2, 3) == {0: 10}
        assert bott_table(2, -3) == {2: 1}
        assert bott_table(3, -4) == {3: 1}
        assert bott_table(3, -6) == {3: 10}
        assert bott_table(1, 5) == {0: 6}
        assert bott_table(1, -2) == {1: 1}


class TestQuadric:
    def test_against_ambient_sequence(self):
        for n in (2, 3, 4, 5):
            for k in range(-10, 11):
                assert quadric_line_table(n, k) == quadric_by_les(n, k), (n, k)

    def test_degree_doubles_the_leading_count(self):
        # h^0(O_Q(k)) grows like deg * k^n / n!; spot the degree at k
        # large via the difference against projective space
        q3 = quadric(3)
        for k in (5, 8):
            assert quadric_line_table(3, k)[0] == comb(4 + k, 4) - comb(2 + k, 4)
        assert q3.deg == 2

    def test_diagonal_matches_the_product_surface(self):
        q2 = quadric(2)
        p11 = product_proj(1, 1)
        for k in range(-5, 6):
            a = sheaf_table(LineBundle((k,)), q2, (-6, 6))
            b = sheaf_table(LineBundle((k, k)), p11, (-6, 6))
            assert a.same_entries(b), k

    def test_frozen_values(self):
        assert quadric_line_table(2, 0) == {0: 1}
        assert quadric_line_table(2, 1) == {0: 4}
        assert quadric_line_table(2, -2) == {2: 1}
        assert quadric_line_table(3, 1) == {0: 5}
        assert quadric_line_table(3, -3) == {3: 1}
        assert quadric_line_table(3, -1) == {}
        assert quadric_line_table(3, -2) == {}


class TestProductKuenneth:
    def kuenneth(self, n1, n2, a, b, k):
        out = {}
        left = ambient_line_table(n1, a + k)
        right = ambient_line_table(n2, b + k)
        for i1, h1 in left.items():
            for i2, h2 in right.items():
                out[i1 + i2] = out.get(i1 + i2, 0) + h1 * h2
        return out

    def test_against_convolution(self):
        for n1, n2 in ((1, 1), (1, 2), (2, 2), (2, 3)):
            model = product_proj(n1, n2)
            for a in range(-3, 4):
                for b in range(-3, 4):
                    for k in range(-4, 5):
                        got = sheaf_column(LineBundle((a, b)), model, k)
                        assert got == self.kuenneth(n1, n2, a, b, k), (n1, n2, a, b, k)

    def test_ruling_bundles_on_the_quadric_surface_model(self):
        model = product_proj(1, 1)
        assert sheaf_column(LineBundle((1, 0)), model, 0) == {0: 2}
        assert sheaf_column(LineBundle((0, 1)), model, 0) == {0: 2}
        assert sheaf_column(LineBundle((1, 0)), model, -1) == {}
        assert sheaf_column(LineBundle((0, 1)), model, -1) == {}
        assert sheaf_column(LineBundle((-1, -1)), model, 0) == {}
        assert sheaf_column(LineBundle((-2, 0)), model, 0) == {1: 1}


class TestEllipticDichotomy:
    def test_riemann_roch(self):
        model = elliptic_curve(3)
        for rank in (1, 2, 3):
            for degree in range(-6, 7):
                if degree == 0:
                    continue
                desc = SemistableEC(rank, degree)
                col = sheaf_column(desc, model, 0)
                chi = col.get(0, 0) - col.get(1, 0)
                assert chi == degree

    def test_positive_degree_has_no_h1(self):
        model = elliptic_curve(4)
        for degree in range(1, 8):
            assert sheaf_column(SemistableEC(2, degree), model, 0) == {0: degree}

    def test_negative_degree_has_no_h0(self):
        model = elliptic_curve(4)
        for degree in range(-7, 0):
            assert sheaf_column(SemistableEC(2, degree), model, 0) == {1: -degree}

    def test_degree_zero_dichotomy(self):
        model = elliptic_curve(3)
        assert sheaf_column(SemistableEC(1, 0, True), model, 0) == {0: 1, 1: 1}
        assert sheaf_column(SemistableEC(1, 0, False), model, 0) == {}
        assert sheaf_column(SemistableEC(3, 0, True), model, 0) == {0: 1, 1: 1}

    def test_degree_zero_without_the_bit_is_refused(self):
        model = elliptic_curve(3)
        with pytest.raises(UnknownSlopeZero):
            sheaf_column(SemistableEC(1, 0), model, 0)
        # away from degree zero the bit is never consulted
        assert sheaf_column(SemistableEC(1, 2), model, 0) == {0: 2}

    def test_twist_moves_degree_by_rank_times_d(self):
        model = elliptic_curve(5)
        desc = SemistableEC(2, 3)
        for t in range(-3, 4):
            expected_degree = 3 + 2 * 5 * t
            got = sheaf_column(desc, model, t)
            want = sheaf_column(SemistableEC(2, expected_degree), model, 0)
            assert got == want, t

    def test_line_bundle_normalization(self):
        model = elliptic_curve(3)
        for k in range(-2, 3):
            a = sheaf_table(LineBundle((k,)), model, (-4, 4))
            b = sheaf_table(SemistableEC(1, 3 * k, True), model, (-4, 4))
            assert a.same_entries(b), k

    def test_serre_duality_on_the_curve(self):
        model = elliptic_curve(3)
        for rank, degree in ((1, 2), (1, -4), (2, 5), (3, -1)):
            col = sheaf_column(SemistableEC(rank, degree), model, 0)
            dual = sheaf_column(SemistableEC(rank, -degree), model, 0)
            assert col.get(0, 0) == dual.get(1, 0)
            assert col.get(1, 0) == dual.get(0, 0)

    def test_elliptic_table_helper_agrees(self):
        model = elliptic_curve(3)
        assert sheaf_column(SemistableEC(1, 7), model, 0) == {0: 7}


class TestSpinor:
    def test_frozen_sections_on_q3(self):
        q3 = quadric(3)
        expected = {0: 4, 1: 16, 2: 40, -1: 0, -2: 0}
        for k, h0 in expected.items():
            assert spinor_table(q3, None, k).get(0, 0) == h0, k

    def test_frozen_top_on_q3(self):
        q3 = quadric(3)
        expected = {-4: 4, -5: 16, -6: 40, -3: 0, -2: 0}
        for k, h3 in expected.items():
            assert spinor_table(q3, None, k).get(3, 0) == h3, k

    def test_no_intermediate_cohomology_q3(self):
        q3 = quadric(3)
        for k in range(-9, 9):
            table = spinor_table(q3, None, k)
            assert table.get(1, 0) == 0 and table.get(2, 0) == 0, k

    def test_duality_symmetry_q3(self):
        # the dual is the spinor twisted down once, so Serre duality
        # folds the table onto itself around k = -2
        q3 = quadric(3)
        for k in range(-9, 9):
            table = spinor_table(q3, None, k)
            folded = spinor_table(q3, None, -4 - k)
            for i in range(4):
                assert table.get(i, 0) == folded.get(3 - i, 0), (k, i)

    def test_euler_recursion_from_the_defining_sequence(self):
        q3 = quadric(3)

        def chi_s(k):
            table = spinor_table(q3, None, k)
            return sum((-1) ** i * h for i, h in table.items())

        def chi_q(k):
            table = quadric_line_table(3, k)
            return sum((-1) ** i * h for i, h in table.items())

        for k in range(-7, 8):
            assert chi_s(k) == 4 * chi_q(k) - chi_s(k - 1), k

    def test_q2_spinor_lines(self):
        q2 = quadric(2)
        for sign in ("+", "-"):
            assert spinor_table(q2, sign, 0) == {0: 2}
            assert spinor_table(q2, sign, -1) == {}
        # the two rulings are exchanged, not equal, off the diagonal
        plus = sheaf_table(Spinor("+"), q2, (-4, 4))
        minus = sheaf_table(Spinor("-"), q2, (-4, 4))
        assert plus.same_entries(minus)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_q2_spinor_columns_are_their_product_form_columns(self, sign):
        q2, p11 = quadric(2), product_proj(1, 1)
        on_product = product_form(Spinor(sign), q2)
        for t in range(-8, 8):
            assert sheaf_column(Spinor(sign), q2, t) == sheaf_column(
                on_product, p11, t
            ), (sign, t)

    def test_sign_validation(self):
        with pytest.raises(MalformedDescriptor):
            sheaf_column(Spinor(None), quadric(2), 0)
        with pytest.raises(MalformedDescriptor):
            sheaf_column(Spinor("+"), quadric(3), 0)
        with pytest.raises(UnsupportedQuadricDim):
            sheaf_column(Spinor(None), quadric(5), 0)


class TestTablePlumbing:
    def test_direct_sum_additivity(self):
        p2 = proj_space(2)
        desc = direct_sum((line_bundle(1), 2), line_bundle(-3))
        for t in range(-4, 4):
            merged = sheaf_column(desc, p2, t)
            a = sheaf_column(line_bundle(1), p2, t)
            b = sheaf_column(line_bundle(-3), p2, t)
            want = {}
            for src, mult in ((a, 2), (b, 1)):
                for i, h in src.items():
                    want[i] = want.get(i, 0) + mult * h
            assert merged == {i: h for i, h in want.items() if h}

    def test_table_window_is_enforced(self):
        p2 = proj_space(2)
        table = sheaf_table(line_bundle(0), p2, (-3, 3))
        assert table.h(0, 2) == 6
        with pytest.raises(IncompleteTable):
            table.h(0, 4)
        with pytest.raises(IncompleteTable):
            table.column(-4)

    def test_abstract_table_is_read_inside_the_window(self):
        # a stored table wider than the window gives back exactly its
        # entries inside the window, bare and as a summand
        p2 = proj_space(2)
        stored = CohomologyTable(
            window=(-5, 5),
            entries={(0, t): t + 6 for t in range(-5, 6)}
            | {(1, -4): 3, (1, 2): 1, (2, 4): 7, (2, 5): 2},
        )
        A = AbstractSheaf(rank=1, label="wide", table=stored)
        window = (-3, 4)
        inside = {(i, t): h for (i, t), h in stored.entries.items() if -3 <= t <= 4}
        bare = sheaf_table(A, p2, window)
        assert bare.window == window and bare.entries == inside
        summed = sheaf_table(direct_sum(A, line_bundle(-4)), p2, window)
        want = dict(inside)
        for key, h in sheaf_table(line_bundle(-4), p2, window).entries.items():
            want[key] = want.get(key, 0) + h
        assert summed.window == window and summed.entries == want
        with pytest.raises(IncompleteTable):
            sheaf_table(A, p2, (-6, 0))
        with pytest.raises(NoOracle):
            sheaf_table(AbstractSheaf(rank=1), p2, window)

    def test_surface_model_has_no_oracle(self):
        surf = rank1_surface(4, -1, 1)
        with pytest.raises(NoOracle):
            sheaf_column(line_bundle(0), surf, 0)

    def test_parse_round_trip_through_tables(self):
        q3 = quadric(3)
        desc = parse_sheaf("2*S+O(-1)", q3)
        col = sheaf_column(desc, q3, 0)
        assert col == {0: 8}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=-10, max_value=10),
    t=st.integers(min_value=-4, max_value=4),
)
def test_twist_is_translation_on_pn(n, k, t):
    assert bott_table(n, k + t) == sheaf_column(LineBundle((k,)), proj_space(n), t)


@settings(max_examples=60, deadline=None)
@given(
    rank=st.integers(min_value=1, max_value=4),
    degree=st.integers(min_value=-8, max_value=8),
)
def test_elliptic_chi_equals_degree(rank, degree):
    model = elliptic_curve(3)
    desc = SemistableEC(rank, degree, True)
    col = sheaf_column(desc, model, 0)
    assert col.get(0, 0) - col.get(1, 0) == degree


# Ulrich atoms: each pushes forward to a sum of structure sheaves on P^n
ULRICH_ATOMS = (
    [(proj_space(n), line_bundle(0)) for n in range(1, 5)]
    + [(product_proj(1, 1), LineBundle((1, 0))), (product_proj(1, 1), LineBundle((0, 1)))]
    + [(quadric(2), Spinor("+")), (quadric(2), Spinor("-")), (quadric(3), Spinor(None))]
    + [(elliptic_curve(d), SemistableEC(1, d, False)) for d in range(3, 7)]
)


@settings(max_examples=60, deadline=None)
@given(
    atom=st.sampled_from(ULRICH_ATOMS),
    lo=st.integers(min_value=-300, max_value=300),
    width=st.integers(min_value=0, max_value=600),
)
def test_ulrich_atoms_have_the_eisenbud_schreyer_table(atom, lo, width):
    # the oracle tables are computed independently of ulrich_table
    model, desc = atom
    window = (lo, min(lo + width, 300))
    table = sheaf_table(desc, model, window)
    column = sheaf_column(desc, model, 0)
    assert column == {0: model.deg * rank_of(desc, model)}
    assert ulrich_table(model.dim, column, window).same_entries(table)


SPINOR_SEQUENCES = [
    (quadric(3), Spinor(None), Spinor(None)),
    (quadric(2), Spinor("+"), Spinor("-")),
    (quadric(2), Spinor("-"), Spinor("+")),
]


@settings(max_examples=60, deadline=None)
@given(
    sequence=st.sampled_from(SPINOR_SEQUENCES),
    lo=st.integers(min_value=-299, max_value=300),
    width=st.integers(min_value=0, max_value=599),
)
def test_spinor_tables_satisfy_the_defining_sequence(sequence, lo, width):
    # 0 -> S(-1) -> O^N -> S' -> 0 with N = 2^floor((n+1)/2) (Ottaviani
    # 1988); S' = S on Q^3 and the other sign on Q^2.  Spinors have no
    # intermediate cohomology, so the long exact sequence leaves one h^0
    # and one h^n identity against the quadric's line-bundle oracle.
    model, S, S_prime = sequence
    n = model.dim
    N = 2 ** ((n + 1) // 2)
    hi = min(lo + width, 300)
    before = sheaf_table(S, model, (lo - 1, hi - 1))
    after = sheaf_table(S_prime, model, (lo, hi))
    for t in range(lo, hi + 1):
        line = quadric_line_table(n, t)
        assert after.h(0, t) == N * line.get(0, 0) - before.h(0, t - 1), t
        assert before.h(n, t - 1) == N * line.get(n, 0) - after.h(n, t), t


@pytest.mark.parametrize(
    "model, desc",
    [
        (proj_space(2), line_bundle(1)),
        (quadric(3), line_bundle(0)),
        (quadric(2), line_bundle(0)),
        (product_proj(1, 1), LineBundle((1, 1))),
        (elliptic_curve(3), SemistableEC(1, 3, True)),
    ],
)
def test_non_ulrich_atoms_differ_from_the_eisenbud_schreyer_table(model, desc):
    window = (-6, 6)
    table = sheaf_table(desc, model, window)
    assert not ulrich_table(model.dim, table.column(0), window).same_entries(table)
