"""Closed grammar of problem data: + - * / ^ (or **), sin, cos, exp, pi, int and float literals
and variables, read with `ast`, never run; a tree is a float, a variable or (op, *operands)."""

import ast
import math

import numpy as np

from .errors import ConfigError

MAX_DEPTH = 48  # bounds the recursion of diff and lambdify on accepted trees
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "**": np.power,
        "pos": np.positive, "neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp,
        "log": np.log}
_AST_OPS = dict(zip((ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub), _OPS))


def node(op, *args):
    """The tree `(op, *args)`, or its value when every operand is a number."""
    if all(isinstance(a, float) for a in args):
        with np.errstate(all="ignore"):
            return float(_OPS[op](*args))
    return (op, *args)


def parse_expression(text, variables=("x", "t")):
    """The tree of text; text outside the grammar or too deep is a ConfigError."""
    source, names = text.replace("^", "**"), {"pi": math.pi, **{v: v for v in variables}}
    def walk(e, depth):
        if depth > MAX_DEPTH:
            raise ConfigError(f"expression {text!r} is nested deeper than {MAX_DEPTH} levels")
        tree = names.get(getattr(e, "id", None))  # a Name: pi or a variable
        if isinstance(e, ast.Constant) and type(e.value) in (int, float):
            tree = float(e.value) if e.value < 2**1024 - 2**970 else math.inf  # float()'s overflow
        elif isinstance(e, ast.UnaryOp | ast.BinOp) and type(e.op) in _AST_OPS:
            operands = [e.operand] if isinstance(e, ast.UnaryOp) else [e.left, e.right]
            tree = node(_AST_OPS[type(e.op)], *(walk(a, depth + 1) for a in operands))
        elif (isinstance(e, ast.Call) and getattr(e.func, "id", "") in ("sin", "cos", "exp")
              and len(e.args) == 1 and not e.keywords):
            tree = node(e.func.id, walk(e.args[0], depth + 1))
        if tree is None or isinstance(tree, float) and not math.isfinite(tree):
            fault = f"is {tree}" if tree else f"is not in the grammar over {', '.join(variables)}"
            raise ConfigError(f"expression {text!r}: {ast.get_source_segment(source, e)!r} {fault}")
        return tree

    try:
        parsed = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    return walk(parsed.body, 1)


def lambdify(expr, variables):
    """Numpy-broadcasting callable of an expression tree; it never warns, since
    its callers refuse non-finite values by name."""
    def value(e, at):
        return _OPS[e[0]](*[value(a, at) for a in e[1:]]) if isinstance(e, tuple) else at.get(e, e)

    return np.errstate(all="ignore")(lambda *args: np.full(
        np.broadcast_shapes(*map(np.shape, args)), value(expr, dict(zip(variables, args))), float))


def diff(expr, variable):
    """The derivative tree of expr in variable; the f^g log f term only where g varies."""
    if not isinstance(expr, tuple):
        return float(expr == variable)
    op, f, g = (*expr, None)[:3]
    if op in ("+", "-", "pos", "neg"):
        return node(op, *(diff(a, variable) for a in expr[1:]))
    df, dg = diff(f, variable), diff(g, variable)
    if op == "*":
        return node("+", node("*", df, g), node("*", f, dg))
    if op == "/":
        return node("/", node("-", df, node("*", expr, dg)), g)
    if op == "**":
        d = node("*", node("*", g, node("**", f, node("-", g, 1.0))), df)
        return d if dg == 0 else node("+", d, node("*", node("*", expr, node("log", f)), dg))
    outer = {"sin": ("cos", f), "cos": ("neg", ("sin", f)), "exp": expr, "log": ("/", 1.0, f)}
    return node("*", outer[op], df)
