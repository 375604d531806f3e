"""The engine reads only a fixed set of environment variables.

A knob that only chooses between equivalent implementations belongs in
the code as a constant; this test stops new ones from creeping in. It
parses every module under fsst_ray/ and collects each `os.environ` /
`os.getenv` access; every access must name a string literal on the
allow-list.
"""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "fsst_ray"

ALLOWED = {
    "FSST_FAULT_ROUTE_ONCE_DIR",  # test hook: kill one staging task
    "FSST_NATIVE_SO",  # test hook: load a prebuilt C kernel
    "FSST_RAY_DATA_DIR",  # where the synthetic corpus is cached
}


def _is_os_attr(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _env_reads(tree: ast.AST) -> list[tuple[int, str | None]]:
    """(line, variable name) per env access; name None when the key is
    not a string literal (which the allow-list cannot vouch for)."""
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }

    def literal(node: ast.AST | None) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    reads = []
    for node in ast.walk(tree):
        if _is_os_attr(node, "getenv"):
            call = parents.get(node)
            key = call.args[0] if isinstance(call, ast.Call) and call.args else None
            reads.append((node.lineno, literal(key)))
        elif _is_os_attr(node, "environ"):
            parent = parents.get(node)
            key = None
            if isinstance(parent, ast.Subscript):
                key = parent.slice
            elif isinstance(parent, ast.Attribute):  # os.environ.get(...) etc.
                call = parents.get(parent)
                if isinstance(call, ast.Call) and call.args:
                    key = call.args[0]
            elif isinstance(parent, ast.Compare):  # "X" in os.environ
                key = parent.left
            reads.append((node.lineno, literal(key)))
    return reads


def test_env_reads_are_allow_listed():
    found: dict[str, list[str]] = {}
    bad = []
    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(PKG.parent)
        for line, name in _env_reads(tree):
            found.setdefault(name or "<non-literal>", []).append(f"{rel}:{line}")
            if name not in ALLOWED:
                bad.append(f"{rel}:{line} reads {name or 'a non-literal key'}")
    assert not bad, "unexpected environment reads:\n" + "\n".join(bad)
    # the scan must see the reads it allows, or it is scanning nothing
    assert set(found) == ALLOWED, found


def test_scanner_sees_every_access_shape():
    src = (
        "import os\n"
        "a = os.environ.get('A')\n"
        "b = os.environ['B']\n"
        "c = os.getenv('C', '1')\n"
        "d = 'D' in os.environ\n"
        "e = os.environ.get(name)\n"
    )
    assert sorted(_env_reads(ast.parse(src)), key=lambda r: r[0]) == [
        (2, "A"),
        (3, "B"),
        (4, "C"),
        (5, "D"),
        (6, None),
    ]
