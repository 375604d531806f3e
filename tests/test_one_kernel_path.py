"""The C kernel is the engine's only kernel path.

`native.get_lib()` raises when the library cannot be built or loaded, so
a caller that tests its result against None is the start of a second,
silent implementation beside it. This scan parses every module under
fsst_ray/ and tools/ and fails on any such comparison, or on a
`_LOAD_FAILED` flag that would cache a load failure.

FSST has one handle too: `fsst.train` runs the C trainer and returns the
state blob, which the C encode and decode entry points take as it is.
The Python FSST (tests/fsst_oracle.py: `train_oracle`, `CompressorBuilder`,
`Compressor`, ...) is the test oracle, so no module under fsst_ray/ may
name it or import it, and a tool only for the uses listed in
TRAINER_ALLOWED.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "fsst_ray").rglob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def _is_get_lib_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "get_lib") or (
        isinstance(f, ast.Attribute) and f.attr == "get_lib"
    )


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _second_path_marks(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each None test of a get_lib() result (direct, or
    through a name assigned from it) and each _LOAD_FAILED use."""
    lib_names = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_get_lib_call(node.value)
        for t in node.targets
        if isinstance(t, ast.Name)
    }

    def is_lib(node: ast.AST) -> bool:
        return _is_get_lib_call(node) or (isinstance(node, ast.Name) and node.id in lib_names)

    marks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_lib, operands)) and any(map(_is_none, operands)):
                marks.append((node.lineno, "compares a get_lib() result with None"))
        elif (isinstance(node, ast.Name) and node.id == "_LOAD_FAILED") or (
            isinstance(node, ast.Attribute) and node.attr == "_LOAD_FAILED"
        ):
            marks.append((node.lineno, "uses _LOAD_FAILED"))
    return marks


def test_no_second_kernel_path():
    assert any(p.name == "native.py" for p in SOURCES)  # scanning something
    bad = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(ROOT)
        bad += [f"{rel}:{line} {what}" for line, what in _second_path_marks(tree)]
    assert not bad, "second kernel path:\n" + "\n".join(bad)


def test_scanner_sees_every_shape():
    src = (
        "lib = native.get_lib()\n"
        "if lib is None: pass\n"
        "if lib is not None and w < 57: pass\n"
        "if native.get_lib() is None: pass\n"
        "if None == get_lib(): pass\n"
        "_LOAD_FAILED = False\n"
        "other = 3\n"
        "if other is None: pass\n"
        "if _LIB is None: pass\n"
    )
    assert sorted(_second_path_marks(ast.parse(src))) == [
        (2, "compares a get_lib() result with None"),
        (3, "compares a get_lib() result with None"),
        (4, "compares a get_lib() result with None"),
        (5, "compares a get_lib() result with None"),
        (6, "uses _LOAD_FAILED"),
    ]


ORACLE_NAMES = (
    "train_oracle",
    "CompressorBuilder",
    "Compressor",
    "compressor_from_state",
    "make_sample",
    "decompress_vector",
    "fsst_oracle",
)

# (module, name) pairs allowed to name the oracle: micro_bench
# hand-builds one-symbol tables to time the compress paths (reference
# benches/micro.rs), and times the oracle beside the C trainer
# (train_ms_oracle against train_ms_c)
TRAINER_ALLOWED = {
    ("tools/micro_bench.py", "CompressorBuilder"),
    ("tools/micro_bench.py", "train_oracle"),
    ("tools/micro_bench.py", "fsst_oracle"),
}


def _oracle_trainer_marks(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each reference to the oracle: a call, an
    attribute or name read, a definition, or an import of it or of its
    module."""
    marks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ORACLE_NAMES:
            marks.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in ORACLE_NAMES:
            marks.append((node.lineno, node.attr))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ORACLE_NAMES:
            marks.append((node.lineno, node.name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            marks += [
                (node.lineno, name)
                for name in ORACLE_NAMES
                if any(name in m.split(".") for m in modules)
            ]
    return marks


def test_one_trainer_path():
    bad = []
    for path in SOURCES:
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        bad += [
            f"{rel}:{line} names {name}"
            for line, name in _oracle_trainer_marks(tree)
            if (rel, name) not in TRAINER_ALLOWED
        ]
    assert not bad, "second training path:\n" + "\n".join(bad)


def test_trainer_scanner_sees_every_shape():
    src = (
        "comp = fsst.train_oracle(lines)\n"
        "b = fsst.CompressorBuilder()\n"
        "from fsst_ray.kernel.fsst import train_oracle\n"
        "t = train_oracle\n"
        "b = CompressorBuilder()\n"
        "comp = fsst.train(lines)\n"
        "c = fsst.compressor_from_state(blob)\n"
        "def make_sample(lines): pass\n"
        "class Compressor: pass\n"
        "import fsst_oracle\n"
        "from tests.fsst_oracle import Decompressor\n"
        "out = decompress_vector(codes, s, n)\n"
        "state = native.compress_bulk(data, offsets, blob)\n"
    )
    assert sorted(_oracle_trainer_marks(ast.parse(src))) == [
        (1, "train_oracle"),
        (2, "CompressorBuilder"),
        (3, "train_oracle"),
        (4, "train_oracle"),
        (5, "CompressorBuilder"),
        (7, "compressor_from_state"),
        (8, "make_sample"),
        (9, "Compressor"),
        (10, "fsst_oracle"),
        (11, "fsst_oracle"),
        (12, "decompress_vector"),
    ]
