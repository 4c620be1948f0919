"""Sums are additive: a direct sum nested by hand gives every oracle the
same answer, or the same first error, as its flattened form.

The flattened form is built here with ``direct_sum`` from the atoms and
multiplied multiplicities the test drew, not by the kit's own reader.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    AbstractSheaf,
    DirectSum,
    ExternalTensor,
    LineBundle,
    Spinor,
    class_of,
    direct_sum,
    elliptic_curve,
    ext_dimension,
    formal_complex,
    is_initialized,
    k0_class,
    product_proj,
    proj_space,
    quadric,
    restrict_hyperplane,
    sheaf_table,
    validate_descriptor,
)
from ulrich_kit.errors import Indeterminate, MalformedDescriptor, NoOracle, UlrichKitError
from ulrich_kit.sheaves import rank_of
from ulrich_kit.variety import default_window

from test_cohomology import oracle_atoms

SUM_MODELS = [proj_space(2), quadric(2), quadric(3), product_proj(1, 1), elliptic_curve(3)]
MULTS = st.integers(1, 3)


def result(fn, *args):
    """The value of fn(*args), or the type and message of its error."""
    try:
        return ("ok", fn(*args))
    except UlrichKitError as err:
        return (type(err), str(err))


@st.composite
def nested_sums(draw, model, window):
    """A hand-built DirectSum of DirectSums and its flattened form; half
    of them hold no stored table and no spinor, so most oracles answer."""
    atoms = oracle_atoms(model, window, opaque=draw(st.booleans()))
    inner = st.lists(st.tuples(atoms, MULTS), min_size=1, max_size=3)
    groups = draw(st.lists(st.tuples(inner, MULTS), min_size=1, max_size=3))
    nested = DirectSum(tuple((DirectSum(tuple(parts)), m) for parts, m in groups))
    flat = direct_sum(*((atom, a * m) for parts, m in groups for atom, a in parts))
    return nested, flat


def line_bundles(model):
    width = 2 if model.kind == "prod" else 1
    return st.builds(LineBundle, st.tuples(*[st.integers(-3, 3)] * width))


def consumers(model, window, line):
    """Each oracle as a function of one descriptor."""
    return {
        "sheaf_table": lambda d: sheaf_table(d, model, window).entries,
        "rank_of": lambda d: rank_of(d, model),
        "class_of": lambda d: class_of(d, model),
        "k0_class": lambda d: k0_class(d, model),
        "ext source": lambda d: [ext_dimension(d, line, k, model) for k in range(model.dim + 1)],
        "ext target": lambda d: [ext_dimension(line, d, k, model) for k in range(model.dim + 1)],
        "restrict_hyperplane": lambda d: restrict_hyperplane(
            formal_complex(model, {0: d})
        ).sheaf_map(),
        "is_initialized": lambda d: is_initialized(d, model),
    }


@pytest.mark.parametrize("model", SUM_MODELS, ids=lambda m: f"{m.kind}:{m.dim}")
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_nested_sum_reads_as_its_flattened_form(model, data):
    window = default_window(model)
    nested, flat = data.draw(nested_sums(model, window))
    line = data.draw(line_bundles(model))
    for name, oracle in consumers(model, window, line).items():
        assert result(oracle, nested) == result(oracle, flat), name


def test_of_two_malformed_parts_of_a_nested_sum_the_first_raises():
    p2 = proj_space(2)
    nested = DirectSum(
        ((DirectSum(((LineBundle((0,)), 1), (LineBundle((1, 2)), 1))), 2), (Spinor(None), 1))
    )
    for check in (validate_descriptor, class_of):
        with pytest.raises(MalformedDescriptor, match="needs 1 twist component"):
            check(nested, p2)
    first, second = AbstractSheaf(1, label="first"), AbstractSheaf(1, label="second")
    nested = DirectSum(((DirectSum(((LineBundle((0,)), 1), (first, 1))), 1), (second, 3)))
    with pytest.raises(Indeterminate, match=r"^abstract\(first,rank=1\) carries no"):
        class_of(nested, p2)


def test_a_tensor_of_a_sum_raises_for_its_first_failing_summand_before_the_other_factor():
    # [A + B] x [C] is walked A, B, then C: no distribution into A x C + B x C
    p11 = product_proj(1, 1)
    a, b, c = LineBundle((0,)), AbstractSheaf(1, label="B"), AbstractSheaf(1, label="C")
    with pytest.raises(NoOracle, match=r"^abstract\(B,rank=1\) carries no table$"):
        sheaf_table(ExternalTensor(direct_sum(a, b), c), p11)
    malformed = ExternalTensor(direct_sum(a, LineBundle((0, 0))), Spinor(None))
    with pytest.raises(MalformedDescriptor, match="needs 1 twist component"):
        validate_descriptor(malformed, p11)
    with pytest.raises(MalformedDescriptor, match="needs 1 twist component"):
        sheaf_table(malformed, p11)
