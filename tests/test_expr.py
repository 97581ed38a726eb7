"""Parser and evaluator tests, anchored to an independently computed corpus."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzfix import EvalError, ParseError, eval_expr, eval_on_arrays, parse, variables
from corpus_expr import CORPUS, MALFORMED

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@pytest.mark.parametrize("text,binding,expected", CORPUS)
def test_corpus_value(text, binding, expected):
    assert eval_expr(parse(text), binding) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("text,binding,expected", CORPUS)
def test_corpus_array_agrees_with_scalar(text, binding, expected):
    arrays = {name: np.full(4, value) for name, value in binding.items()}
    out = eval_on_arrays(parse(text), **arrays) if arrays else eval_on_arrays(parse(text))
    assert np.allclose(np.asarray(out), expected, atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("text,offset", MALFORMED)
def test_malformed_position(text, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == offset
    assert f"at offset {offset}" in str(info.value)


def test_parse_error_carries_expected_tokens():
    with pytest.raises(ParseError) as info:
        parse("x +")
    assert "(" in info.value.expected


@pytest.mark.parametrize(
    "text", ["", "   ", "1..5", "min(x)", "abs(1, 2)", "sin(x)", "x y", "(x"]
)
def test_other_malformed_inputs_raise(text):
    with pytest.raises(ParseError):
        parse(text)


def test_variables_reported():
    assert variables(parse("t / (t + abs(x - y))")) == frozenset({"t", "x", "y"})
    assert variables(parse("1 + 2")) == frozenset()


def test_unbound_variable_is_eval_error():
    with pytest.raises(EvalError):
        eval_expr(parse("x + y"), {"x": 1.0})


def test_division_by_zero_is_eval_error():
    with pytest.raises(EvalError):
        eval_expr(parse("1 / x"), {"x": 0.0})


def test_sqrt_of_negative_is_eval_error():
    with pytest.raises(EvalError):
        eval_expr(parse("sqrt(x)"), {"x": -1.0})


def test_overflow_is_eval_error():
    with pytest.raises(EvalError):
        eval_expr(parse("exp(x)"), {"x": 1e6})


def test_fractional_power_of_negative_base_is_eval_error():
    with pytest.raises(EvalError):
        eval_expr(parse("x ^ 0.5"), {"x": -4.0})


def test_array_division_by_zero_is_eval_error():
    with pytest.raises(EvalError):
        eval_on_arrays(parse("1 / x"), x=np.array([1.0, 0.0]))


def test_array_broadcasting():
    e = parse("x + y")
    out = eval_on_arrays(e, x=np.arange(3.0)[:, None], y=np.arange(2.0)[None, :])
    assert out.shape == (3, 2)
    assert out[2, 1] == pytest.approx(3.0)


def test_constant_broadcasts_to_binding_shape():
    out = eval_on_arrays(parse("2 + 3"), x=np.zeros((2, 5)))
    assert out.shape == (2, 5)
    assert np.all(out == 5.0)


@given(a=finite, b=finite, c=finite)
def test_subtraction_left_associative(a, b, c):
    got = eval_expr(parse("a - b - c"), {"a": a, "b": b, "c": c})
    assert got == pytest.approx((a - b) - c, abs=1e-9, rel=1e-12)


@given(
    a=st.floats(min_value=0.1, max_value=10, allow_nan=False),
    b=st.floats(min_value=0.5, max_value=2, allow_nan=False),
    c=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_power_right_associative(a, b, c):
    got = eval_expr(parse("a ^ b ^ c"), {"a": a, "b": b, "c": c})
    assert got == pytest.approx(a ** (b**c), rel=1e-12, abs=1e-12)


@given(x=finite)
def test_unary_minus_binds_looser_than_power(x):
    assert eval_expr(parse("-x ^ 2"), {"x": x}) == pytest.approx(-(x**2), rel=1e-12, abs=1e-12)


@given(values=st.lists(finite, min_size=2, max_size=6))
def test_min_max_agree_with_builtins(values):
    names = [f"v{i}" for i in range(len(values))]
    binding = dict(zip(names, values))
    args = ", ".join(names)
    assert eval_expr(parse(f"min({args})"), binding) == min(values)
    assert eval_expr(parse(f"max({args})"), binding) == max(values)


@given(x=finite, y=finite, t=positive)
def test_scalar_and_array_paths_agree(x, y, t):
    e = parse("t / (t + abs(x - y))")
    scalar = eval_expr(e, {"x": x, "y": y, "t": t})
    array = eval_on_arrays(e, x=np.array([x]), y=np.array([y]), t=np.array([t]))
    assert float(array[0]) == pytest.approx(scalar, rel=1e-15, abs=1e-15)


@given(x=st.floats(min_value=-20, max_value=20, allow_nan=False))
def test_exp_matches_math(x):
    assert eval_expr(parse("exp(x)"), {"x": x}) == pytest.approx(math.exp(x), rel=1e-15)


# one bad element among good ones: the array path raises wherever the
# scalar path does, and agrees with it at the good point
DOMAIN_ERRORS = [
    ("exp(-1 / s)", 0.0),
    ("min(1 / s, 1)", 0.0),
    ("1 / (1 / s)", 0.0),
    ("exp(s)", 705.0),
    ("sqrt(s - 1)", 0.5),
    ("s ^ 0.5", -4.0),
    ("s ^ -1", 0.0),
]


@pytest.mark.parametrize("text,bad", DOMAIN_ERRORS)
def test_array_and_scalar_paths_share_the_domain(text, bad):
    e = parse(text)
    with pytest.raises(EvalError):
        eval_expr(e, {"s": bad})
    with pytest.raises(EvalError):
        eval_on_arrays(e, s=np.array([2.0, bad]))
    assert float(eval_on_arrays(e, s=np.array([2.0]))[0]) == pytest.approx(
        eval_expr(e, {"s": 2.0}), rel=1e-15)


# the evaluator's contract for each way of binding its variables: a
# read-only result of the broadcast shape, and EvalError on a non-finite
# value, a zero divisor or sqrt of a negative
BINDINGS = {
    "single-array": ("x", {"x": np.linspace(0.0, 1.0, 5)}),
    "two-arrays-one-shape": ("x + y", {"x": np.ones((2, 3)), "y": np.zeros((2, 3))}),
    "broadcasting-shapes": ("x + y", {"x": np.ones((3, 1)), "y": np.zeros((1, 2))}),
    "scalars-only": ("x + y", {"x": 0.5, "y": 2.0}),
    "constant-tree": ("2", {"x": np.zeros((2, 5))}),
    "constant-tree-unbound": ("2", {}),
}


@pytest.mark.parametrize("name", sorted(BINDINGS))
def test_result_is_read_only_with_the_broadcast_shape(name):
    base, binding = BINDINGS[name]
    shape = np.broadcast_shapes(*(np.shape(v) for v in binding.values()))
    for text in (base, f"({base}) * 0.5 + 1"):
        out = eval_on_arrays(parse(text), **binding)
        assert out.shape == shape
        assert not out.flags.writeable


@pytest.mark.parametrize("template", ["({}) * 0 + 1e308 * 10", "1 / (({}) * 0)",
                                      "sqrt(({}) * 0 - 1)"])
@pytest.mark.parametrize("name", sorted(BINDINGS))
def test_domain_errors_for_every_binding(name, template):
    base, binding = BINDINGS[name]
    with pytest.raises(EvalError):
        eval_on_arrays(parse(template.format(base)), **binding)


def test_a_bare_variable_is_a_read_only_view_of_the_caller_array():
    x = np.arange(3.0)
    out = eval_on_arrays(parse("x"), x=x)
    assert not out.flags.writeable and x.flags.writeable
    assert np.shares_memory(out, x) and np.array_equal(out, x)
