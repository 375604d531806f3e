"""`fsst_ray/keyed.py` is the only keyed-aggregate path.

Group boundaries, per-row and per-key integer sums and segment
reductions each have one implementation there. A hand-written copy
elsewhere is a second path, and two of its shapes are wrong on real
data: `np.bincount(..., weights=)` sums in float64 and rounds above
2^53, and `reduceat` mis-reduces empty segments. This scan parses every
module under fsst_ray/, `__ray_entry__.py` and tools/ and fails on a
`bincount` with weights, on any `ufunc.reduceat`, and on the
`x[1:] != x[:-1]` boundary idiom (either order, as an operator or
through `np.not_equal`) outside keyed.py.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
KEYED = ROOT / "fsst_ray" / "keyed.py"
SOURCES = [
    p
    for p in sorted((ROOT / "fsst_ray").rglob("*.py"))
    + [ROOT / "__ray_entry__.py"]
    + sorted((ROOT / "tools").glob("*.py"))
    if p != KEYED
]


def _const(node: ast.AST | None):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const(node.operand)
        return None if inner is None else -inner
    return node.value if isinstance(node, ast.Constant) else None


def _shifted(a: ast.AST, b: ast.AST) -> bool:
    """a is x[1:] and b is x[:-1] of the same x (or the other way round)."""

    def part(node, lower, upper):
        if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)):
            return None
        s = node.slice
        if s.step is not None or _const(s.lower) != lower or _const(s.upper) != upper:
            return None
        if (s.lower is None) != (lower is None) or (s.upper is None) != (upper is None):
            return None
        return ast.dump(node.value)

    for x, y in ((a, b), (b, a)):
        head, tail = part(x, 1, None), part(y, None, -1)
        if head is not None and head == tail:
            return True
    return False


def _second_path_marks(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each hand-written keyed-aggregate shape."""
    marks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name == "bincount" and (
                len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords)
            ):
                marks.append((node.lineno, "float64 bincount(weights=) sum"))
            elif name == "reduceat":
                marks.append((node.lineno, "ufunc.reduceat"))
            elif name == "not_equal" and len(node.args) >= 2:
                if _shifted(node.args[0], node.args[1]):
                    marks.append((node.lineno, "x[1:] vs x[:-1] group boundary"))
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            if isinstance(node.ops[0], ast.NotEq) and _shifted(
                node.left, node.comparators[0]
            ):
                marks.append((node.lineno, "x[1:] vs x[:-1] group boundary"))
    return marks


def test_one_keyed_path():
    assert any(p.name == "dedup.py" for p in SOURCES)  # scanning something
    bad = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(ROOT)
        bad += [f"{rel}:{line} {what}" for line, what in _second_path_marks(tree)]
    assert not bad, "second keyed-aggregate path (use fsst_ray/keyed.py):\n" + "\n".join(bad)


def test_scanner_sees_every_shape():
    src = (
        "s = np.bincount(inv, weights=w)\n"
        "s = np.bincount(inv, w)\n"
        "c = np.bincount(inv, minlength=4)\n"
        "t = np.add.reduceat(v, starts)\n"
        "m = np.minimum.reduceat(v, starts, axis=0)\n"
        "b = k[1:] != k[:-1]\n"
        "b = k[:-1] != k[1:]\n"
        "np.not_equal(u[1:], u[:-1], out=o)\n"
        "b = blk['k'][1:] != blk['k'][:-1]\n"
        "b = a[1:] != b[:-1]\n"
        "b = k[2:] != k[:-2]\n"
        "d = t[1:] - t[:-1]\n"
        "b = k[1:] < k[:-1]\n"
        "same = w[:-1] == w[1:]\n"
        '"""np.bincount(inv, weights=w) in a docstring"""\n'
    )
    assert sorted(_second_path_marks(ast.parse(src))) == [
        (1, "float64 bincount(weights=) sum"),
        (2, "float64 bincount(weights=) sum"),
        (4, "ufunc.reduceat"),
        (5, "ufunc.reduceat"),
        (6, "x[1:] vs x[:-1] group boundary"),
        (7, "x[1:] vs x[:-1] group boundary"),
        (8, "x[1:] vs x[:-1] group boundary"),
        (9, "x[1:] vs x[:-1] group boundary"),
    ]
