"""Every top-level name of the package is used by the package itself.

A function, class or constant that only a test calls is code that exists
for itself.  A name counts as used when another top-level statement of
``src/fibercurve`` loads it, bare or as an attribute; a definition that
only refers to itself does not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fibercurve"

# names the package keeps for its readers, not for its own code
UNUSED_ON_PURPOSE = {
    ("__init__", "__version__"),  # the package version
    # the paper's definitions, which the integer code is checked against
    # (acceptance criteria 1 and 4)
    ("fiber", "raw_coefficients"),
    ("fiber", "det_form"),
    ("fiber", "jacobian_matrix"),
}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _loaded_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unused_names():
    """(module, name) of each top-level definition no other top-level
    statement of the package loads."""
    definitions = []  # (module, name, statement index)
    loaders = {}  # name -> indices of the statements that load it
    statement = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            statement += 1
            definitions += [(path.stem, n, statement) for n in _defined_names(node)]
            for name in _loaded_names(node):
                loaders.setdefault(name, set()).add(statement)
    return {
        (module, name)
        for module, name, index in definitions
        if not loaders.get(name, set()) - {index}
    }


def test_every_top_level_name_is_used_in_the_package():
    assert unused_names() == UNUSED_ON_PURPOSE

