"""Every top-level name of the package is used by the package itself,
and every parameter default is overridden by it somewhere.

A function, class or constant that only a test calls is code that exists
for itself.  A name counts as used when another top-level statement of
``src/fibercurve`` loads it, bare or as an attribute; a definition that
only refers to itself does not count.  The same holds for each method
and property of a package class, dunders aside: some statement outside
its own definition loads its name.

Likewise a parameter with a default that no call in the package passes is
a knob only a test turns, and so is a ``NamedTuple`` field with a default
that no construction passes; a single value in use is a constant.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fibercurve"

# names the package keeps for its readers, not for its own code
UNUSED_ON_PURPOSE = {
    ("__init__", "__version__"),  # the package version
    # the paper's definitions, which the integer code is checked against
    # (acceptance criteria 1 and 4)
    ("fiber", "det_form"),
    ("fiber", "jacobian_matrix"),
}

# methods that code outside the package calls
METHODS_UNUSED_ON_PURPOSE = {
    ("cli", "_Parser", "error"),  # argparse calls it on a rejected argument
}

# parameters with a default that the package never passes
DEFAULTS_ON_PURPOSE = {
    ("cli", "main", "argv"),  # the entry point; None reads sys.argv
    ("fiber", "det_form", "row_power"),  # the oracle's lower-degree variant
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


def unused_methods():
    """(module, class, name) of each method or property of a package
    class, dunders aside, whose name only its own definition loads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    loads = Counter(name for tree in trees.values() for name in _loaded_names(tree))
    return {
        (module, cls.name, item.name)
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and loads[item.name] == Counter(_loaded_names(item))[item.name]
    }


def test_every_method_is_used_in_the_package():
    assert unused_methods() == METHODS_UNUSED_ON_PURPOSE


def _defaults(tree):
    """(name it is called by, [(parameter, position)] of its parameters with
    a default) of each function, method and ``NamedTuple``: a method's self
    or cls is bound, ``__init__`` is called by its class name, and a field
    with a default is a parameter of its class at the field's position.
    The position of a keyword-only parameter is None."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
                   for b in node.bases):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                yield node.name, [(f.target.id, k) for k, f in enumerate(fields)
                                  if f.value is not None]
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = node.name if item.name == "__init__" else item.name
                    methods[item] = (name, True)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            called_as, binds_first = methods.get(node, (node.name, False))
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - binds_first) for i, a in enumerate(positional)
                      if i >= first]
            params += [(a.arg, None) for a, default in
                       zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            yield called_as, params


def _passes(call, name, position):
    """Whether a call passes parameter name, at the given position if it
    may be given by position (None otherwise)."""
    keywords = {k.arg for k in call.keywords}
    if name in keywords or None in keywords:  # None: a **mapping
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > position


def unset_defaults():
    """(module, function, parameter) of each parameter with a default that
    no call in the package passes, by position or by keyword."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    calls = {}  # name called -> calls
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = set()
    for module, tree in trees.items():
        for called_as, params in _defaults(tree):
            for name, position in params:
                if not any(_passes(call, name, position)
                           for call in calls.get(called_as, [])):
                    unset.add((module, called_as, name))
    return unset


def test_every_default_parameter_is_passed_in_the_package():
    assert unset_defaults() == DEFAULTS_ON_PURPOSE
