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
    DirectSum,
    ExternalTensor,
    LineBundle,
    SemistableEC,
    Spinor,
    direct_sum,
    elliptic_curve,
    format_sheaf,
    format_variety,
    line_bundle,
    parse_sheaf,
    product_proj,
    proj_space,
    quadric,
    rank1_surface,
    sheaf_column,
    sheaf_table,
    tensor_line,
)
from ulrich_kit.errors import (
    IncompleteTable,
    MalformedDescriptor,
    MalformedModel,
    NoOracle,
    UnknownSlopeZero,
    UnsupportedQuadricDim,
)
from ulrich_kit.cohomology import ulrich_table
from ulrich_kit.variety import MAX_DIM, MAX_TWISTS, default_window
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
                column = sheaf_column(line_bundle(k), proj_space(n), 0)
                assert column.get(0, 0) == count_monomials(n, k)

    def test_top_cohomology_by_serre(self):
        for n in range(1, 5):
            for k in range(-12, 13):
                table = sheaf_column(line_bundle(k), proj_space(n), 0)
                dual = sheaf_column(line_bundle(-k - n - 1), proj_space(n), 0)
                for i in range(0, n + 1):
                    assert table.get(i, 0) == dual.get(n - i, 0), (n, k, i)

    def test_no_intermediate_cohomology(self):
        for n in range(2, 5):
            for k in range(-12, 13):
                for i in range(1, n):
                    assert sheaf_column(line_bundle(k), proj_space(n), 0).get(i, 0) == 0

    def test_euler_characteristic_matches_polynomial(self):
        for n in range(1, 6):
            for k in range(-10, 11):
                table = sheaf_column(line_bundle(k), proj_space(n), 0)
                chi = sum((-1) ** i * h for i, h in table.items())
                assert chi == chi_by_polynomial(n, k)

    def test_zero_region_is_exactly_the_gap(self):
        for n in range(1, 5):
            for k in range(-n, 0):
                assert sheaf_column(line_bundle(k), proj_space(n), 0) == {}

    def test_frozen_values(self):
        assert sheaf_column(line_bundle(0), proj_space(2), 0) == {0: 1}
        assert sheaf_column(line_bundle(3), proj_space(2), 0) == {0: 10}
        assert sheaf_column(line_bundle(-3), proj_space(2), 0) == {2: 1}
        assert sheaf_column(line_bundle(-4), proj_space(3), 0) == {3: 1}
        assert sheaf_column(line_bundle(-6), proj_space(3), 0) == {3: 10}
        assert sheaf_column(line_bundle(5), proj_space(1), 0) == {0: 6}
        assert sheaf_column(line_bundle(-2), proj_space(1), 0) == {1: 1}


class TestQuadric:
    def test_against_ambient_sequence(self):
        for n in (2, 3, 4, 5):
            for k in range(-10, 11):
                column = sheaf_column(line_bundle(k), quadric(n), 0)
                assert column == quadric_by_les(n, k), (n, k)

    def test_degree_doubles_the_leading_count(self):
        # h^0(O_Q(k)) grows like deg * k^n / n!; spot the degree at k
        # large via the difference against projective space
        q3 = quadric(3)
        for k in (5, 8):
            column = sheaf_column(line_bundle(k), quadric(3), 0)
            assert column[0] == comb(4 + k, 4) - comb(2 + k, 4)
        assert q3.deg == 2

    def test_diagonal_matches_the_product_surface(self):
        q2 = quadric(2)
        p11 = product_proj(1, 1)
        for k in range(-5, 6):
            a = sheaf_table(LineBundle((k,)), q2, (-6, 6))
            b = sheaf_table(LineBundle((k, k)), p11, (-6, 6))
            assert a.same_entries(b), k

    def test_frozen_values(self):
        assert sheaf_column(line_bundle(0), quadric(2), 0) == {0: 1}
        assert sheaf_column(line_bundle(1), quadric(2), 0) == {0: 4}
        assert sheaf_column(line_bundle(-2), quadric(2), 0) == {2: 1}
        assert sheaf_column(line_bundle(1), quadric(3), 0) == {0: 5}
        assert sheaf_column(line_bundle(-3), quadric(3), 0) == {3: 1}
        assert sheaf_column(line_bundle(-1), quadric(3), 0) == {}
        assert sheaf_column(line_bundle(-2), quadric(3), 0) == {}


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
            assert sheaf_column(Spinor(None), q3, k).get(0, 0) == h0, k

    def test_frozen_top_on_q3(self):
        q3 = quadric(3)
        expected = {-4: 4, -5: 16, -6: 40, -3: 0, -2: 0}
        for k, h3 in expected.items():
            assert sheaf_column(Spinor(None), q3, k).get(3, 0) == h3, k

    def test_no_intermediate_cohomology_q3(self):
        q3 = quadric(3)
        for k in range(-9, 9):
            table = sheaf_column(Spinor(None), q3, k)
            assert table.get(1, 0) == 0 and table.get(2, 0) == 0, k

    def test_duality_symmetry_q3(self):
        # the dual is the spinor twisted down once, so Serre duality
        # folds the table onto itself around k = -2
        q3 = quadric(3)
        for k in range(-9, 9):
            table = sheaf_column(Spinor(None), q3, k)
            folded = sheaf_column(Spinor(None), q3, -4 - k)
            for i in range(4):
                assert table.get(i, 0) == folded.get(3 - i, 0), (k, i)

    def test_euler_recursion_from_the_defining_sequence(self):
        q3 = quadric(3)

        def chi_s(k):
            table = sheaf_column(Spinor(None), q3, k)
            return sum((-1) ** i * h for i, h in table.items())

        def chi_q(k):
            table = sheaf_column(line_bundle(k), quadric(3), 0)
            return sum((-1) ** i * h for i, h in table.items())

        for k in range(-7, 8):
            assert chi_s(k) == 4 * chi_q(k) - chi_s(k - 1), k

    def test_q2_spinor_lines(self):
        q2 = quadric(2)
        for sign in ("+", "-"):
            assert sheaf_column(Spinor(sign), q2, 0) == {0: 2}
            assert sheaf_column(Spinor(sign), q2, -1) == {}
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_spinor_rank_is_the_ulrich_section_count(self, n):
        # spinors are Ulrich, so h^0(S) = deg * rank (Eisenbud-Schreyer);
        # the rank the model states must be the one the oracle implies
        model = quadric(n)
        for sign in model.spinor_signs:
            h0 = sheaf_column(Spinor(sign), model, 0)[0]
            assert Fraction(h0, model.deg) == model.spinor_rank, sign


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

    def test_windows_past_the_twist_cap_are_refused(self):
        # pn:8000, whose default window would span 3 * 8000 + 8 twists,
        # is refused by the dimension cap; under it every default fits
        with pytest.raises(MalformedModel, match="dimension"):
            proj_space(8000)
        widest = proj_space(MAX_DIM)
        assert default_window(widest)[1] - default_window(widest)[0] + 1 <= MAX_TWISTS
        with pytest.raises(MalformedDescriptor, match="twists"):
            sheaf_table(line_bundle(0), proj_space(1), (0, MAX_TWISTS))
        table = sheaf_table(line_bundle(0), proj_space(1), (0, MAX_TWISTS - 1))
        assert table.h(0, MAX_TWISTS - 1) == MAX_TWISTS

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
    pn = proj_space(n)
    assert sheaf_column(line_bundle(k + t), pn, 0) == sheaf_column(LineBundle((k,)), pn, t)


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
        line = sheaf_column(line_bundle(t), quadric(n), 0)
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


# ---------------------------------------------------------------------------
# Whole-window tables against a per-twist reference.  The reference below
# computes one column at a time from the formulas at the top of this file
# (Bott binomials, quadric differences, Kunneth convolution, the elliptic
# dichotomy) and never calls the kit's oracles.


def convolve(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    out = {}
    for p, a in left.items():
        for q, b in right.items():
            out[p + q] = out.get(p + q, 0) + a * b
    return out


def reference_column(desc, model, t: int) -> dict[int, int]:
    """h^i(desc(t)) for one twist, raising what the kit raises for a
    part without an oracle."""
    if isinstance(desc, DirectSum):
        out = {}
        for part, mult in desc.parts:
            for i, h in reference_column(part, model, t).items():
                out[i] = out.get(i, 0) + mult * h
        return {i: h for i, h in out.items() if h}
    if isinstance(desc, AbstractSheaf):
        if desc.table is None:
            raise NoOracle(f"{format_sheaf(desc)} carries no table")
        lo, hi = desc.table.window
        if not lo <= t <= hi:
            raise IncompleteTable(f"twist {t} outside window {desc.table.window}")
        return {i: h for (i, s), h in desc.table.entries.items() if s == t}
    if model.kind == "pn":
        return ambient_line_table(model.dim, desc.twists[0] + t)
    if model.kind == "quadric":
        if isinstance(desc, LineBundle):
            return quadric_by_les(model.dim, desc.twists[0] + t)
        if model.dim == 2:  # the rulings O(1,0) and O(0,1) of P^1 x P^1
            a, b = (1, 0) if desc.sign == "+" else (0, 1)
            return convolve(ambient_line_table(1, a + t), ambient_line_table(1, b + t))
        # S on Q^3 is Ulrich of rank 2 on a threefold of degree 2, so it
        # pushes forward to O^4 on P^3 (Eisenbud-Schreyer)
        return {i: 4 * h for i, h in ambient_line_table(3, t).items()}
    if model.kind == "prod":
        n1, n2 = model.factors
        if isinstance(desc, LineBundle):
            a, b = desc.twists
            return convolve(ambient_line_table(n1, a + t), ambient_line_table(n2, b + t))
        return convolve(
            reference_column(desc.left, proj_space(n1), t),
            reference_column(desc.right, proj_space(n2), t),
        )
    if model.kind == "elliptic":
        if isinstance(desc, LineBundle):
            rank, degree, trivial = 1, desc.twists[0] * model.deg, True
        else:
            rank, degree, trivial = desc.rank, desc.degree, desc.trivial_type
        delta = degree + rank * model.deg * t
        if delta > 0:
            return {0: delta}
        if delta < 0:
            return {1: -delta}
        if trivial is None:
            raise UnknownSlopeZero(
                f"{format_sheaf(desc)}: twisted degree zero needs the triviality bit"
            )
        return {0: 1, 1: 1} if trivial else {}
    raise NoOracle(
        f"abstract surfaces have no oracle for {format_sheaf(desc)};"
        " attach an explicit table"
    )


def reference_entries(desc, model, window) -> dict[tuple[int, int], int]:
    lo, hi = window
    return {
        (i, t): h
        for t in range(lo, hi + 1)
        for i, h in reference_column(desc, model, t).items()
    }


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of its error."""
    try:
        return ("ok", fn(*args))
    except (NoOracle, IncompleteTable, UnknownSlopeZero) as err:
        return (type(err), str(err))


ORACLE_MODELS = (
    [proj_space(n) for n in range(1, 5)]
    + [quadric(n) for n in range(2, 5)]
    + [product_proj(1, 1), product_proj(1, 2)]
    + [elliptic_curve(d) for d in range(3, 7)]
)

windows = st.one_of(
    st.tuples(st.integers(-12, 4), st.integers(0, 12)),  # across the vanishing gaps
    st.tuples(st.integers(-300, 300), st.integers(0, 600)),
).map(lambda pair: (pair[0], min(pair[0] + pair[1], 300)))


@st.composite
def stored_tables(draw, window, short=False):
    """An abstract sheaf whose table covers the window, or misses one end
    of it when ``short``."""
    lo, hi = window
    a, b = lo - draw(st.integers(0, 3)), hi + draw(st.integers(0, 3))
    if short and draw(st.booleans()):
        a = lo + draw(st.integers(1, 3))
        b = max(a, b)
    elif short:
        b = hi - draw(st.integers(1, 3))
        a = min(a, b)
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(-1, 3), st.integers(a, b)), st.integers(1, 9), max_size=8
        )
    )
    return AbstractSheaf(rank=1, label="stored", table=CohomologyTable((a, b), entries))


@st.composite
def oracle_atoms(draw, model, window, opaque=True):
    """An atom the kit has an oracle for on the model; elliptic atoms
    carry the triviality bit.  ``opaque`` admits stored tables and
    spinors, the atoms without a line twist rule."""
    choices = ["line"]
    if opaque and model.kind == "quadric" and model.dim in (2, 3):
        choices.append("spinor")
    if model.kind == "prod":
        choices.append("tensor")
    if model.kind == "elliptic":
        choices.append("ss")
    if opaque:
        choices.append("abstract")
    choice = draw(st.sampled_from(choices))
    if choice == "abstract":
        return draw(stored_tables(window))
    if choice == "spinor":
        return Spinor(draw(st.sampled_from("+-")) if model.dim == 2 else None)
    if choice == "tensor":
        left, right = model.factor_models
        return ExternalTensor(
            draw(oracle_descriptors(left, window, 1, opaque)),
            draw(oracle_descriptors(right, window, 1, opaque)),
        )
    if choice == "ss":
        return SemistableEC(draw(st.integers(1, 3)), draw(st.integers(-20, 20)), draw(st.booleans()))
    width = 2 if model.kind == "prod" else 1
    return LineBundle(tuple(draw(st.integers(-8, 8)) for _ in range(width)))


@st.composite
def oracle_descriptors(draw, model, window, depth=2, opaque=True):
    """An atom or a sum nested up to ``depth`` deep, multiplicities 1 to 3."""
    if depth == 0 or draw(st.booleans()):
        return draw(oracle_atoms(model, window, opaque))
    parts = st.tuples(oracle_descriptors(model, window, depth - 1, opaque), st.integers(1, 3))
    return DirectSum(tuple(draw(st.lists(parts, min_size=1, max_size=3))))


@st.composite
def tables_to_build(draw):
    model = draw(st.sampled_from(ORACLE_MODELS))
    window = draw(windows)
    return model, draw(oracle_descriptors(model, window)), window


@settings(max_examples=80, deadline=None)
@given(case=tables_to_build(), data=st.data())
def test_tables_and_columns_match_the_per_twist_reference(case, data):
    model, desc, window = case
    lo, hi = window
    table = sheaf_table(desc, model, window)
    assert table.window == window
    assert table.entries == reference_entries(desc, model, window)
    t = data.draw(st.integers(lo, hi))
    for s in {lo, t, hi}:
        assert sheaf_column(desc, model, s) == reference_column(desc, model, s), s


SERRE_MODELS = (
    [quadric(n) for n in range(2, 6)]
    + [product_proj(a, b) for a in range(1, 4) for b in range(1, 5 - a)]
    + [elliptic_curve(d) for d in range(3, 7)]
)


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(SERRE_MODELS), data=st.data())
def test_line_bundle_tables_satisfy_serre_duality(model, data):
    # h^i(O(a)(t)) = h^(n-i)(O(K - a)(-t))
    n, canonical = model.dim, model.canonical_twists
    a = data.draw(st.tuples(*[st.integers(-6, 6)] * len(canonical)))
    dual = LineBundle(tuple(k - x for k, x in zip(canonical, a)))
    table = sheaf_table(LineBundle(a), model, (-4, 5))
    mirror = sheaf_table(dual, model, (-5, 4))
    for t in range(-4, 6):
        for i in range(n + 1):
            assert table.h(i, t) == mirror.h(n - i, -t), (i, t)


def small_atoms(model):
    """Every line bundle with twists in -6..6, every spinor, and every
    semistable atom of rank 1..3 and degree -20..20 with its bit."""
    if model.kind == "prod":
        yield from (LineBundle((a, b)) for a in range(-6, 7) for b in range(-6, 7))
    else:
        yield from (LineBundle((a,)) for a in range(-6, 7))
    if model.kind == "quadric" and model.dim == 2:
        yield from (Spinor("+"), Spinor("-"))
    if model.kind == "quadric" and model.dim == 3:
        yield Spinor(None)
    if model.kind == "elliptic":
        for rank, degree, bit in itertools.product(range(1, 4), range(-20, 21), (True, False)):
            yield SemistableEC(rank, degree, bit)


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=format_variety)
def test_every_small_atom_matches_the_per_twist_reference(model):
    # every boundary of every rule lies inside this window
    window = (-12, 12)
    for desc in small_atoms(model):
        table = sheaf_table(desc, model, window)
        assert table.entries == reference_entries(desc, model, window), desc


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    column=st.dictionaries(st.integers(-2, 4), st.integers(1, 9), max_size=3),
    window=windows,
)
def test_ulrich_table_matches_the_per_twist_convolution(n, column, window):
    lo, hi = window
    want = {}
    for t in range(lo, hi + 1):
        for i, h in convolve(column, ambient_line_table(n, t)).items():
            want[(i, t)] = h
    assert ulrich_table(n, column, window).entries == want


@st.composite
def failing_parts(draw, model, window):
    """A part whose oracle fails somewhere in the window."""
    lo, hi = window
    choices = ["no table", "short table"]
    if model.kind == "elliptic":
        choices.append("no bit")
    if model.kind == "surface":
        choices.append("surface line")
    choice = draw(st.sampled_from(choices))
    if choice == "no table":
        return AbstractSheaf(rank=1)
    if choice == "short table":
        return draw(stored_tables(window, short=True))
    if choice == "surface line":
        return LineBundle((draw(st.integers(-8, 8)),))
    rank, zero = draw(st.integers(1, 3)), draw(st.integers(lo, hi))
    return SemistableEC(rank, -rank * model.deg * zero)  # degree zero at twist zero


@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(ORACLE_MODELS + [rank1_surface(4, -1, 1)]),
    window=windows,
    data=st.data(),
)
def test_one_failing_part_raises_what_the_per_twist_path_raises(model, window, data):
    if model.kind == "surface":  # only stored tables have an oracle there
        good = st.lists(stored_tables(window), max_size=3)
    else:
        good = st.lists(oracle_descriptors(model, window, 1), max_size=3)
    parts = data.draw(good)
    parts.insert(data.draw(st.integers(0, len(parts))), data.draw(failing_parts(model, window)))
    mults = data.draw(st.lists(st.integers(1, 3), min_size=len(parts), max_size=len(parts)))
    desc = parts[0] if len(parts) == 1 else DirectSum(tuple(zip(parts, mults)))
    want = outcome(reference_entries, desc, model, window)
    assert want[0] != "ok"
    got = outcome(sheaf_table, desc, model, window)
    assert got == want
    lo, hi = window
    for t in {lo, hi}:
        assert outcome(sheaf_column, desc, model, t) == outcome(reference_column, desc, model, t)


def test_slope_zero_without_the_bit_is_refused_only_inside_the_window():
    model = elliptic_curve(3)
    desc = direct_sum(SemistableEC(2, 12), line_bundle(1))  # degree zero at twist -2
    for window in ((-40, -3), (-1, 40)):
        assert sheaf_table(desc, model, window).entries == reference_entries(desc, model, window)
    for window in ((-2, -2), (-40, 40)):
        with pytest.raises(UnknownSlopeZero, match=r"^ss\(2,12\): twisted degree zero"):
            sheaf_table(desc, model, window)


def test_of_two_failing_parts_the_first_in_the_sum_raises():
    """``sheaf_table`` builds the parts of a sum in order, each over the
    whole window, so the first failing part raises, even when a later one
    fails at a lower twist."""
    model, window = elliptic_curve(3), (-3, 3)
    late, early = SemistableEC(1, -6), SemistableEC(2, 0)  # zero at twists 2 and 0
    for first, second in ((late, early), (early, late)):
        desc = DirectSum(((first, 1), (second, 2)))
        with pytest.raises(UnknownSlopeZero) as err:
            sheaf_table(desc, model, window)
        assert str(err.value).startswith(format_sheaf(first) + ":")
    short = CohomologyTable((0, 3), {(0, 1): 2})
    desc = DirectSum(((AbstractSheaf(rank=1), 1), (AbstractSheaf(1, table=short), 1)))
    with pytest.raises(NoOracle):
        sheaf_table(desc, proj_space(2), window)
    desc = DirectSum(((AbstractSheaf(1, table=short), 1), (AbstractSheaf(rank=1), 1)))
    with pytest.raises(IncompleteTable, match=r"^twist -3 outside window \(0, 3\)$"):
        sheaf_table(desc, proj_space(2), window)


# Twist equivariance: an identity of the oracles themselves, independent of
# the reference above.  E(k) read at twist t is E read at twist t + k.
@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(ORACLE_MODELS),
    window=windows,
    k=st.integers(-40, 40),
    data=st.data(),
)
def test_twisting_the_sheaf_translates_its_table(model, window, k, data):
    desc = data.draw(oracle_descriptors(model, window, opaque=False))
    lo, hi = window
    shift = (k, k) if model.kind == "prod" else (k,)
    base = sheaf_table(desc, model, window)
    twisted = sheaf_table(tensor_line(desc, shift, model), model, (lo - k, hi - k))
    assert twisted.entries == {(i, t - k): h for (i, t), h in base.entries.items()}
