"""Every module of ``repro`` reads the names it imports.

An import that nothing reads is dead code that outlives whatever it
once served: deleting a node class or a helper leaves its imports
behind in every module that named it.  This test scans each module's
AST for names an import binds and no expression loads.  Package
``__init__`` modules (which re-export), names listed in ``__all__`` and
``from __future__`` imports are exempt.
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)


def _unused_imports(source: str):
    """The names *source* binds by an import and never loads."""
    tree = ast.parse(source)
    imported = {}
    loaded = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and \
                isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in loaded and name not in exported)


def test_scanner_flags_only_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\n"
              "from typing import Dict, List\n"
              "__all__ = ['List']\n"
              "def f(x: Dict) -> None:\n    return osp.join(x)\n")
    assert _unused_imports(source) == [(2, "os")]


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for directory, __, files in os.walk(SRC):
        for filename in sorted(files):
            if not filename.endswith(".py") or filename == "__init__.py":
                continue
            path = os.path.join(directory, filename)
            with open(path) as handle:
                source = handle.read()
            unused.extend(f"{os.path.relpath(path, SRC)}:{line} {name}"
                          for line, name in _unused_imports(source))
    assert unused == []
