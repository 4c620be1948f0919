"""An independent oracle on projective space: Bott's formula for
h^q(P^n, Omega^p(k)), written here from the formula alone, with nothing
taken from the kit.  It is checked on its own (the Euler sequence,
Serre duality), then used for the dual Beilinson criterion: E on P^n is
Ulrich exactly when H^*(E x Omega^i(i)) = 0 for i = 1..n (Beilinson
1978), which the kit's verdict, read from line-bundle tables only, must
match.  The i = 0 terms h^q(E) are the multiplicities of O[-q] in an
Ulrich object.
"""

from math import comb, factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    direct_sum,
    formal_complex,
    is_ulrich_object,
    line_bundle,
    pn_decompose,
    proj_space,
)


def bott(n: int, p: int, q: int, k: int) -> int:
    """h^q(P^n, Omega^p(k)) for 0 <= p <= n, by Bott's formula."""
    if k == 0 and p == q:
        return 1
    if q == 0 and k > p:
        return comb(k + n - p, k) * comb(k - 1, p)
    if q == n and k < p - n:
        return comb(p - k, -k) * comb(-k - 1, n - p)
    return 0


def chi(n: int, p: int, k: int) -> int:
    return sum((-1) ** q * bott(n, p, q, k) for q in range(n + 1))


def hilbert_polynomial(n: int, k: int) -> int:
    """chi(O(k)) = (k+1)...(k+n)/n! as a polynomial, valid for every k."""
    numerator = 1
    for i in range(1, n + 1):
        numerator *= k + i
    return numerator // factorial(n)  # n consecutive integers: exact


DIMS = range(1, 5)
TWISTS = range(-8, 9)


def test_line_bundles_follow_the_hilbert_polynomial():
    for n in DIMS:
        for k in TWISTS:
            assert chi(n, 0, k) == hilbert_polynomial(n, k), (n, k)


def test_chi_is_additive_along_the_euler_sequence():
    """0 -> Omega^p(k) -> O(k-p)^C(n+1,p) -> Omega^(p-1)(k) -> 0."""
    for n in DIMS:
        for p in range(1, n + 1):
            for k in TWISTS:
                middle = comb(n + 1, p) * chi(n, 0, k - p)
                assert chi(n, p, k) + chi(n, p - 1, k) == middle, (n, p, k)


def test_serre_duality_exchanges_p_and_n_minus_p():
    """H^q(Omega^p(k)) is dual to H^(n-q)(Omega^(n-p)(-k)), as K = Omega^n."""
    for n in DIMS:
        for p in range(n + 1):
            for q in range(n + 1):
                for k in TWISTS:
                    assert bott(n, p, q, k) == bott(n, n - p, n - q, -k), (n, p, q, k)


def beilinson_terms(n: int, atoms: dict[int, list[int]], i: int) -> dict[int, int]:
    """Nonzero h^m(E x Omega^i(i)) of the split complex with the line
    bundles O(a), a in atoms[d], in degree d."""
    out: dict[int, int] = {}
    for degree, twists in atoms.items():
        for a in twists:
            for q in range(n + 1):
                h = bott(n, i, q, i + a)
                if h:
                    out[q + degree] = out.get(q + degree, 0) + h
    return out


# twist 0 often, so that a fair share of the complexes is Ulrich
split_complexes = st.tuples(
    st.sampled_from(DIMS),
    st.dictionaries(
        keys=st.integers(min_value=-2, max_value=2),
        values=st.lists(
            st.one_of(st.just(0), st.integers(min_value=-6, max_value=2)),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=2,
    ),
)


def kit_complex(n: int, atoms: dict[int, list[int]]):
    return formal_complex(
        proj_space(n),
        {d: direct_sum(*(line_bundle(a) for a in twists)) for d, twists in atoms.items()},
    )


@settings(max_examples=150, deadline=None)
@given(drawn=split_complexes)
def test_dual_beilinson_criterion_matches_the_ulrich_verdict(drawn):
    n, atoms = drawn
    vanishes = not any(beilinson_terms(n, atoms, i) for i in range(1, n + 1))
    assert vanishes == is_ulrich_object(kit_complex(n, atoms), "both").passed


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(DIMS),
    copies=st.dictionaries(
        keys=st.integers(min_value=-2, max_value=2),
        values=st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=3,
    ),
)
def test_decomposition_multiplicities_are_the_zeroth_beilinson_terms(n, copies):
    atoms = {d: [0] * m for d, m in copies.items()}
    assert pn_decompose(kit_complex(n, atoms)) == beilinson_terms(n, atoms, 0)
