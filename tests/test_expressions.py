import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtwave import expressions
from xtwave.errors import ConfigError


def test_parse_and_evaluate():
    expr = expressions.parse_expression("sin(pi*x) * exp(-t) + x^2 / 2")
    f = expressions.lambdify(expr, ("x", "t"))
    xs = np.linspace(0, 1, 7)
    ts = np.linspace(0, 2, 7)
    expected = np.sin(np.pi * xs) * np.exp(-ts) + xs**2 / 2
    assert np.allclose(f(xs, ts), expected)


def test_caret_is_power():
    expr = expressions.parse_expression("x^3", ("x",))
    f = expressions.lambdify(expr, ("x",))
    assert f(2.0) == pytest.approx(8.0)


def test_constant_expression_broadcasts():
    expr = expressions.parse_expression("0", ("x",))
    f = expressions.lambdify(expr, ("x",))
    assert f(np.linspace(0, 1, 5)).shape == (5,)


def test_derivative():
    expr = expressions.parse_expression("sin(pi*x)", ("x",))
    d = expressions.lambdify(expressions.diff(expr, "x"), ("x",))
    xs = np.linspace(0, 1, 9)
    assert np.allclose(d(xs), np.pi * np.cos(np.pi * xs))


def test_unknown_symbol_rejected():
    with pytest.raises(ConfigError):
        expressions.parse_expression("x + y")


def test_variable_restriction():
    with pytest.raises(ConfigError):
        expressions.parse_expression("x + t", ("x",))


def test_unsupported_function_rejected():
    with pytest.raises(ConfigError):
        expressions.parse_expression("log(x)")
    with pytest.raises(ConfigError):
        expressions.parse_expression("tan(x)")


def test_malformed_expression_rejected():
    with pytest.raises(ConfigError):
        expressions.parse_expression("sin(x")
    with pytest.raises(ConfigError):
        expressions.parse_expression("x +* t")


_HOSTILE = [
    "exec(\"open({sentinel!r}, 'w').write('x')\") or sin(pi*x)",
    "[x]",
    '__import__("os").getcwd()',
    "x.__class__",
    "Integral(x, x)",
    "Sum(x, (x, 1, 3))",
    "x if 1 else t",
    "x > 0",
    "I*x",
    "oo*x",
    "nan",
    "E^x",
    "True*x",
    "1j*x",
    "sin(x, t)",
    "sin(x=1)",
    "lambda: 0",
    "x(1)",
    "log(x)",
    "sqrt(x)",
]


@pytest.mark.parametrize("template", _HOSTILE)
def test_hostile_text_is_refused_unevaluated(tmp_path, template):
    sentinel = tmp_path / "sentinel"
    with pytest.raises(ConfigError, match="is not in the grammar over x, t$"):
        expressions.parse_expression(template.format(sentinel=str(sentinel)))
    assert not sentinel.exists()


def test_variable_outside_the_key_is_named():
    with pytest.raises(ConfigError) as info:
        expressions.parse_expression("sin(t) + x", ("x",))
    assert str(info.value) == "expression 'sin(t) + x': 't' is not in the grammar over x"


@pytest.mark.parametrize(
    "text, part, value",
    [
        ("1/0", "1/0", "inf"),
        ("x + 0/0", "0/0", "nan"),
        ("1e999*x", "1e999", "inf"),
        ("0^-1", "0**-1", "inf"),
        ("x*10^400", "10**400", "inf"),
        ("sin(x) + -exp(1000)", "exp(1000)", "inf"),
    ],
)
def test_non_finite_constant_is_refused_by_name(text, part, value):
    # the constant parts are folded with NumPy's warnings off: the suite turns
    # a RuntimeWarning into an error, so a warning would fail this test
    with pytest.raises(ConfigError) as info:
        expressions.parse_expression(text)
    assert str(info.value) == f"expression {text!r}: {part!r} is {value}"


@pytest.mark.parametrize("text", ["1 + " + "+".join(["x"] * 5000), "-" * 3000 + "x"])
def test_overlong_input_is_a_config_error(text):
    # Python's parser runs out of recursion on these, or, where its limit is
    # higher, the tree is too deep
    with pytest.raises(ConfigError, match="^cannot parse expression|is nested deeper than"):
        expressions.parse_expression(text)


def _nest(template, depth):
    text = "x"
    for _ in range(depth - 1):
        text = template.format(text)
    return text


@pytest.mark.parametrize("template", ["x/({})", "x^({})", "({})^x", "exp({})"])
def test_deepest_accepted_tree_differentiates_twice(template):
    # each template adds one level; the quotient and power rules make the
    # derivative trees deepest, and the problem's div(c2 grad U0) takes two
    # derivatives of a product; the README documents the bound of 48
    text = _nest(template, 48)
    tree = expressions.parse_expression(text, ("x",))
    flux = expressions.diff(expressions.node("*", tree, expressions.diff(tree, "x")), "x")
    with np.errstate(all="ignore"):
        assert expressions.lambdify(flux, ("x",))(np.linspace(0.2, 0.8, 4)).shape == (4,)
    with pytest.raises(ConfigError, match="is nested deeper than 48 levels$"):
        expressions.parse_expression(template.format(text), ("x",))


def test_constant_parts_fold_and_only_a_varying_exponent_takes_log():
    assert expressions.parse_expression("2^3 - pi*0", ("x",)) == 8.0
    # an int literal is refused from where float() would overflow on
    top = 2**1024 - 2**970
    assert expressions.parse_expression(str(top - 1), ("x",)) == np.finfo(float).max
    with pytest.raises(ConfigError, match=" is inf$"):
        expressions.parse_expression(f"x + {top}", ("x",))
    assert expressions.parse_expression("-(1 + x)", ("x",)) == ("neg", ("+", 1.0, "x"))
    # a constant exponent needs no log term, so x^2 has a derivative at x < 0
    d = expressions.lambdify(expressions.diff(expressions.parse_expression("x^2"), "x"), ("x",))
    assert d(-3.0) == -6.0
    # a varying one takes it
    d = expressions.diff(expressions.parse_expression("x^t"), "t")
    assert expressions.lambdify(d, ("x", "t"))(2.0, 3.0) == pytest.approx(8 * np.log(2))
    # and its second derivative differentiates the log: d^2/dx^2 x^x
    d2 = expressions.diff(expressions.diff(expressions.parse_expression("x^x"), "x"), "x")
    expected = 4 * ((np.log(2) + 1) ** 2 + 1 / 2)
    assert expressions.lambdify(d2, ("x",))(2.0) == pytest.approx(expected, rel=1e-14)


# Random expressions of the grammar, each with its NumPy evaluation: text and
# function side by side.  On x, t in [0.1, 0.9] every part stays in [-1, 1]
# (sums are halved, quotients have denominators of at least 1, powers have
# bases in [0.5, 2.5] and exponents in [-1, 1]), so that values, derivatives
# and central differences are all well conditioned.
_LEAVES = st.sampled_from(
    [("x", lambda x, t: x), ("t", lambda x, t: t), ("0.5", lambda x, t: 0.5),
     ("1", lambda x, t: 1), ("pi/4", lambda x, t: np.pi / 4)]
)


def _unary(part):
    a, f = part
    return st.sampled_from(
        [
            (f"-({a})", lambda x, t: -f(x, t)),
            (f"+({a})", lambda x, t: +f(x, t)),
            (f"sin(pi*({a}))", lambda x, t: np.sin(np.pi * f(x, t))),
            (f"cos({a})", lambda x, t: np.cos(f(x, t))),
            (f"exp({a})/3", lambda x, t: np.exp(f(x, t)) / 3),
            (f"({a})^2", lambda x, t: np.power(f(x, t), 2)),
            (f"({a})**3", lambda x, t: np.power(f(x, t), 3)),
        ]
    )


def _binary(parts):
    (a, f), (b, g) = parts
    return st.sampled_from(
        [
            (f"(({a}) + ({b}))/2", lambda x, t: (f(x, t) + g(x, t)) / 2),
            (f"(({a}) - ({b}))/2", lambda x, t: (f(x, t) - g(x, t)) / 2),
            (f"({a})*({b})", lambda x, t: f(x, t) * g(x, t)),
            (f"({a})/(2 + {b})", lambda x, t: f(x, t) / (2 + g(x, t))),
            (f"(1.5 + {a})^({b})/3", lambda x, t: np.power(1.5 + f(x, t), g(x, t)) / 3),
        ]
    )


_EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda parts: parts.flatmap(_unary) | st.tuples(parts, parts).flatmap(_binary),
    max_leaves=6,
)
_GRID = np.meshgrid(np.linspace(0.1, 0.9, 7), np.linspace(0.1, 0.9, 5), indexing="ij")


@settings(max_examples=50, deadline=None)
@given(expression=_EXPRESSIONS, variable=st.sampled_from(["x", "t"]))
def test_grammar_values_and_derivatives(expression, variable):
    text, reference = expression
    tree = expressions.parse_expression(text)
    x, t = _GRID
    values = expressions.lambdify(tree, ("x", "t"))(x, t)
    # the tree applies the same ufuncs in the same order as the reference;
    # np.power, unlike Python's float power, is the tree's on constant parts
    np.testing.assert_array_equal(values, np.broadcast_to(reference(x, t), x.shape))
    d = expressions.lambdify(expressions.diff(tree, variable), ("x", "t"))(x, t)
    h = 1e-6
    hx, ht = (h, 0.0) if variable == "x" else (0.0, h)
    central = (reference(x + hx, t + ht) - reference(x - hx, t - ht)) / (2 * h)
    np.testing.assert_allclose(d, central, rtol=1e-6, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(expression=_EXPRESSIONS, variable=st.sampled_from(["x", "t"]))
def test_grammar_matches_sympy(expression, variable):
    sp = pytest.importorskip("sympy")  # not a dependency of xtwave
    text, _ = expression
    tree = expressions.parse_expression(text)
    X, T = sp.symbols("x t")
    names = {"x": X, "t": T, "pi": sp.pi, "sin": sp.sin, "cos": sp.cos, "exp": sp.exp}
    expr = sp.sympify(text.replace("^", "**"), locals=names)
    x, t = _GRID
    pairs = ((tree, expr), (expressions.diff(tree, variable), sp.diff(expr, names[variable])))
    for mine, theirs in pairs:
        ours = expressions.lambdify(mine, ("x", "t"))(x, t)
        other = np.broadcast_to(sp.lambdify((X, T), theirs, "numpy")(x, t), x.shape)
        # relative to the largest magnitude on the grid: sympy orders sums and
        # products its own way, and folds sin(pi) to 0
        scale = 1e-12 * max(1.0, np.abs(other).max())
        np.testing.assert_allclose(ours, other, rtol=0, atol=scale)
