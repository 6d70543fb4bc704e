"""Compiled three-valued (0/1/X) node evaluation.

PODEM spends nearly all of its time re-implying node values, so the
three-valued algebra is compiled per node into flat Python expressions
over an encoded value array instead of walking expression trees.

Encoding: ``X = 0``, ``ONE = 1``, ``ZERO = 2``.  With this encoding AND
and OR reduce to two bitwise operations::

    AND(x, y) = ((x & y) & 1) | ((x | y) & 2)
    OR(x, y)  = ((x | y) & 1) | ((x & y) & 2)

(one-bits AND together, zero-bits OR together, and vice versa), while
NOT, XOR and MUX use small lookup tables.

PODEM packs a net's good and faulty machine into one *pair code*
(:func:`pair_code`); the same formulas with masks ``5``/``10`` and
lifted tables evaluate both machines in one call (:func:`compile_pair`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.library.logic import And, Const, LogicExpr, Mux, Not, Or, Var, Xor

#: Encoded three-valued constants.
X, ONE, ZERO = 0, 1, 2

#: NOT lookup: X -> X, 1 -> 0, 0 -> 1.
NOT_TABLE = (X, ZERO, ONE)

#: XOR lookup indexed by ``a * 3 + b``.
XOR_TABLE = (
    X, X, X,        # a = X
    X, ZERO, ONE,   # a = 1
    X, ONE, ZERO,   # a = 0
)

#: MUX lookup indexed by ``s * 9 + a * 3 + b`` (s=1 selects b).
MUX_TABLE = tuple(
    (
        b if s == ONE
        else a if s == ZERO
        else (a if (a == b and a != X) else X)
    )
    for s in (X, ONE, ZERO)
    for a in (X, ONE, ZERO)
    for b in (X, ONE, ZERO)
)


def encode(value: Optional[int]) -> int:
    """Encode a Python-level value (0/1/None) into the 3-valued code."""
    if value is None:
        return X
    return ONE if value else ZERO


def decode(code: int) -> Optional[int]:
    """Decode a 3-valued code into 0/1/None."""
    if code == X:
        return None
    return 1 if code == ONE else 0


def pair_code(good: int, faulty: int) -> int:
    """Pack a good and a faulty three-valued code into one pair code.

    The good machine's code sits in bits 0-1 and the faulty machine's in
    bits 2-3, so the AND/OR formulas above act on both machines at once
    with the masks ``5``/``10``; a D is ``pair_code(ONE, ZERO)``.
    """
    return good | faulty << 2


def _pair_table(table: Sequence[int], arity: int) -> Tuple[int, ...]:
    """Lift a three-valued lookup table to pair codes, per machine."""
    def half(code: int, shift: int) -> int:
        value = (code >> shift) & 3
        return value if value != 3 else X  # 3 never occurs

    out = []
    for index in range(16 ** arity):
        codes = [(index >> (4 * k)) & 15 for k in reversed(range(arity))]
        pair = 0
        for shift in (0, 2):
            flat = 0
            for code in codes:
                flat = flat * 3 + half(code, shift)
            pair |= table[flat] << shift
        out.append(pair)
    return tuple(out)


NOT_PAIR = _pair_table(NOT_TABLE, 1)
XOR_PAIR = _pair_table(XOR_TABLE, 2)
MUX_PAIR = _pair_table(MUX_TABLE, 3)


def _render(expr: LogicExpr, pin_code: Dict[str, str], pair: bool) -> str:
    ones, zeros, base, const = (5, 10, 16, 5) if pair else (1, 2, 3, 1)
    if isinstance(expr, Var):
        return pin_code[expr.pin]
    if isinstance(expr, Const):
        return str((ONE if expr.value else ZERO) * const)
    if isinstance(expr, Not):
        return f"_NT[{_render(expr.arg, pin_code, pair)}]"
    if isinstance(expr, (And, Or)):
        is_and = isinstance(expr, And)
        acc = _render(expr.args[0], pin_code, pair)
        for arg in expr.args[1:]:
            nxt = _render(arg, pin_code, pair)
            if is_and:
                acc = (f"((({acc})&({nxt})&{ones})"
                       f"|((({acc})|({nxt}))&{zeros}))")
            else:
                acc = (f"(((({acc})|({nxt}))&{ones})"
                       f"|((({acc})&({nxt}))&{zeros}))")
        return acc
    if isinstance(expr, Xor):
        a = _render(expr.a, pin_code, pair)
        b = _render(expr.b, pin_code, pair)
        return f"_XT[({a})*{base}+({b})]"
    if isinstance(expr, Mux):
        s = _render(expr.sel, pin_code, pair)
        a = _render(expr.a, pin_code, pair)
        b = _render(expr.b, pin_code, pair)
        return f"_MT[({s})*{base * base}+({a})*{base}+({b})]"
    raise TypeError(f"unsupported expression node {type(expr).__name__}")


def render3(expr: LogicExpr, pin_code: Dict[str, str]) -> str:
    """Render an expression into encoded-3-valued Python source.

    Args:
        expr: Expression tree.
        pin_code: Source snippet per pin producing an encoded value.
            Table names ``_NT``/``_XT``/``_MT`` must be in scope.
    """
    return _render(expr, pin_code, pair=False)


def _compile(body: str, pair: bool) -> Callable[[Sequence[int]], int]:
    tables = (NOT_PAIR, XOR_PAIR, MUX_PAIR) if pair else (
        NOT_TABLE, XOR_TABLE, MUX_TABLE)
    return eval(  # noqa: S307 - source built from trusted trees
        f"lambda v, _NT=_NT, _XT=_XT, _MT=_MT: {body}",
        dict(zip(("_NT", "_XT", "_MT"), tables)),
    )


def compile_node3(expr: LogicExpr, pin_index: Dict[str, int]
                  ) -> Callable[[Sequence[int]], int]:
    """Compile a node function into ``fn(values) -> encoded value``.

    Args:
        expr: The node's logic function.
        pin_index: Net-array index per input pin.

    The And/Or folding duplicates operand snippets, which is fine for
    the shallow trees of standard cells but would blow up on deep
    expressions — bind intermediate values first if that ever changes.
    """
    pin_code = {pin: f"v[{idx}]" for pin, idx in pin_index.items()}
    return _compile(render3(expr, pin_code), pair=False)


def compile_pair(expr: LogicExpr, pin_code: Dict[str, str],
                 good_only: bool = False) -> Callable[[Sequence[int]], int]:
    """Compile a node function over an array of pair codes.

    Args:
        expr: The node's logic function.
        pin_code: Source snippet per pin reading a pair code from the
            array ``v`` (e.g. ``"v[7]"``, or a forced faulty half).
        good_only: Return the good machine's three-valued code
            instead of the output pair code.
    """
    if good_only:
        good = {pin: f"(({code})&3)" for pin, code in pin_code.items()}
        return _compile(render3(expr, good), pair=False)
    return _compile(_render(expr, pin_code, pair=True), pair=True)


def eval3_encoded(expr: LogicExpr, pin_values: Dict[str, int]) -> int:
    """Interpretively evaluate with encoded pin values (slow path)."""
    if isinstance(expr, Var):
        return pin_values[expr.pin]
    if isinstance(expr, Const):
        return ONE if expr.value else ZERO
    if isinstance(expr, Not):
        return NOT_TABLE[eval3_encoded(expr.arg, pin_values)]
    if isinstance(expr, And):
        acc = eval3_encoded(expr.args[0], pin_values)
        for arg in expr.args[1:]:
            nxt = eval3_encoded(arg, pin_values)
            acc = ((acc & nxt & 1) | ((acc | nxt) & 2))
        return acc
    if isinstance(expr, Or):
        acc = eval3_encoded(expr.args[0], pin_values)
        for arg in expr.args[1:]:
            nxt = eval3_encoded(arg, pin_values)
            acc = (((acc | nxt) & 1) | ((acc & nxt) & 2))
        return acc
    if isinstance(expr, Xor):
        a = eval3_encoded(expr.a, pin_values)
        b = eval3_encoded(expr.b, pin_values)
        return XOR_TABLE[a * 3 + b]
    if isinstance(expr, Mux):
        s = eval3_encoded(expr.sel, pin_values)
        a = eval3_encoded(expr.a, pin_values)
        b = eval3_encoded(expr.b, pin_values)
        return MUX_TABLE[s * 9 + a * 3 + b]
    raise TypeError(f"unsupported expression node {type(expr).__name__}")
