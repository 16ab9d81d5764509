"""No unused imports in ``src/`` and ``examples/``.

Every non-``__init__`` module under ``src/`` and ``examples/`` is parsed
with :mod:`ast`; an imported name that the module never reads as a name
(annotations included) and does not list in ``__all__`` fails the test,
which names the file and line.  An import statement with a ``noqa``
comment on one of its lines is exempt: that is how a module marks a
deliberate re-export.  Package ``__init__`` files are skipped, since
re-exporting is what they are for.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples")


def _exported(tree):
    """The strings of a module-level ``__all__`` list or tuple."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            for elt in getattr(stmt.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    out.add(elt.value)
    return out


def unused_imports(source):
    """``[(line, name)]`` of the names ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1 : node.end_lineno]
        if any("noqa" in line for line in span):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if alias.asname:
                bound = alias.asname
            elif isinstance(node, ast.Import):
                bound = alias.name.partition(".")[0]
            else:
                bound = alias.name
            imported.append((node.lineno, bound))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= _exported(tree)
    return sorted((line, name) for line, name in imported if name not in read)


def _modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


class TestChecker:
    """The scan itself: what it flags and what it lets through."""

    def test_flags_unused_imports_by_line_and_bound_name(self):
        src = "import os\nimport sys\nfrom a import b as c\nprint(sys.argv)\n"
        assert unused_imports(src) == [(1, "os"), (3, "c")]

    def test_reads_attributes_aliases_and_dotted_imports(self):
        src = (
            "import os.path\nimport numpy as np\nfrom a import b as c\n"
            "x = os.path.join(np.pi, c)\n"
        )
        assert unused_imports(src) == []

    def test_annotations_count(self):
        src = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import numpy as np\n"
            "def f(a: np.ndarray) -> None:\n"
            "    return a\n"
        )
        assert unused_imports(src) == []

    def test_function_local_imports_are_scanned(self):
        src = "def f():\n    import numpy as np\n    return 1\n"
        assert unused_imports(src) == [(2, "np")]

    def test_all_and_noqa_exempt(self):
        src = (
            "from a import b\n"
            "from c import d  # noqa: F401  (re-exported)\n"
            "from e import (  # noqa: F401\n"
            "    f,\n"
            ")\n"
            "__all__ = ['b']\n"
        )
        assert unused_imports(src) == []


def test_no_unused_imports_in_src_and_examples():
    found = []
    for path in _modules():
        rel = path.relative_to(ROOT)
        for line, name in unused_imports(path.read_text()):
            found.append(f"{rel}:{line}: {name}")
    assert not found, (
        "imported but never read (delete the import, list the name in "
        "__all__, or mark a deliberate re-export with `# noqa`):\n  "
        + "\n  ".join(found)
    )
