"""Module layering of the package, read from its source with ``ast``.

Every import sits at module level, so the import graph is what loading the
package does, and that graph is acyclic: matrix_core, reducibility,
equilibrium, graph_walk, then cli, with oracle on matrix_core and
reducibility only (its linear solve reads the class structure first, then
runs the shared elimination), never on the kernel's module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equilib"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(tree):
    """Package modules that ``tree`` imports, at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = ([node.module.split(".")[0]] if node.module
                     else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").startswith("equilib."):
            names = [node.module.split(".")[1]]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names
                     if alias.name.startswith("equilib.")]
        else:
            continue
        out.update(name for name in names if name in MODULES)
    return out


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.{fn.name}, line {node.lineno}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_module_import_graph_is_acyclic():
    graph = {name: _imported_modules(tree) for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(
                "import cycle: " + " -> ".join(path[path.index(name):]
                                               + [name]))
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
    # the class structure sits below the kernel that uses it
    assert graph["reducibility"] == {"matrix_core"}
    # the reference solve stays independent of the weight kernel
    assert graph["oracle"] == {"matrix_core", "reducibility"}


def test_cli_uses_only_the_public_library_api():
    # graph_walk._COUNT_RE, the count grammar of edge lists, is shared
    private = []
    for node in ast.walk(MODULES["cli"]):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(
                ".")[-1] in ("matrix_core", "reducibility", "equilibrium"):
            private += [f"import {node.module}.{alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.endswith("__"):
            private.append(f".{node.attr}, line {node.lineno}")
    assert private == []


def test_importing_the_cli_loads_only_stdlib_and_numpy():
    # every CLI process pays for what this import loads; modules the
    # interpreter loaded before it (site hooks) are not the package's
    code = ("import sys; before = set(sys.modules); import equilib.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    allowed = set(sys.stdlib_module_names) | {"numpy", "equilib"}
    assert "equilib.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] not in allowed] == []
