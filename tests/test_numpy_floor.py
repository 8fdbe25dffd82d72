"""The package runs on the oldest NumPy it declares.

``pyproject.toml`` allows numpy >= 1.24, but a suite run on a newer NumPy
cannot see a name that exists only there.  This scans the package's source
for the NumPy names and keywords added after 1.24; each must be replaced by
one that 1.24 has (``np.einsum`` for ``np.vecdot``, ``np.concatenate`` for
``np.concat``, ...) or the floor raised on purpose, with this list.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Top-level names of numpy added in 1.25 through 2.2 (the array-API
# aliases of 2.0 among them), and bool, long and ulong, which 1.24 does not
# have and 2.0 brought back.
NEW_NAMES = {
    "exceptions", "dtypes",  # 1.25
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
    "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert",
    "concat", "pow", "permute_dims", "matrix_transpose", "vecdot",
    "isdtype", "astype", "unique_all", "unique_counts", "unique_inverse",
    "unique_values", "trapezoid", "strings", "bool", "long", "ulong",  # 2.0
    "unstack", "cumulative_sum", "cumulative_prod",  # 2.1
    "matvec", "vecmat",  # 2.2
}

# Keywords added after 1.24, by the function or method they are passed to.
NEW_KEYWORDS = {
    "asarray": {"copy", "device"},
    "sort": {"stable"},
    "argsort": {"stable"},
    "reshape": {"shape", "copy"},
    "unique": {"sorted"},
}


def numpy_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for every post-1.24 NumPy name or keyword in tree."""
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in NEW_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in NEW_NAMES:
            root = node.value  # np.name, or np.linalg.name and the like
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            new = NEW_KEYWORDS.get(node.func.attr, set())
            found += [
                (node.lineno, f"{node.func.attr}({k.arg}=)") for k in node.keywords if k.arg in new
            ]
    return sorted(found)


def test_declared_floor_is_the_scanned_one():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'"numpy>=1\.24"', pyproject)


def test_source_uses_no_numpy_name_newer_than_the_floor():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in numpy_uses(tree)]
    assert not found, "NumPy names newer than numpy>=1.24:\n" + "\n".join(found)


def test_scan_finds_new_names_and_keywords():
    code = (
        "import numpy as xp\n"
        "from numpy import concat\n"
        "a = xp.vecdot(x, y)\n"
        "b = xp.einsum('ij,ij->i', x, y)\n"
        "c = x.argsort(stable=True)\n"
        "d = x.astype(float)\n"
        "e = xp.linalg.matrix_transpose(x)\n"
    )
    assert numpy_uses(ast.parse(code)) == [
        (2, "concat"),
        (3, "xp.vecdot"),
        (5, "argsort(stable=)"),
        (7, "xp.linalg.matrix_transpose"),
    ]
