"""Every name a polycert module or test module imports is used in that module,
every module-level name in `src/polycert` is used somewhere in it, and the
package itself imports nothing.

Stdlib stand-ins for a linter's unused-import and unused-name rules, over
every file in `src/polycert` and `tests`.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from test_probe_targets import PROBES

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "polycert"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))

# Module-level names that no code in src/ uses, each kept for a reason.
# Names the benchmark probes and names the acceptance suite imports are
# kept without an entry here.
UNUSED_NAMES_KEPT = {
    ("__init__", "__version__"): "the package version, which pyproject.toml also declares",
    ("reductions", "extract_assignment"): "the reduction's way back: a feasible point of the system gives a satisfying assignment",
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = imported_names(tree) - referenced_names(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_package_import_loads_no_module():
    """Names live in their modules: `import polycert` loads none of them, and
    its `__version__` is the one pyproject.toml declares."""
    code = "import sys, polycert; print(polycert.__version__); print(sorted(m for m in sys.modules if m.startswith('polycert.')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    version, loaded = out.splitlines()
    assert loaded == "[]"
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert version == re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)


def name_uses(tree: ast.AST) -> Counter:
    """How often each name is loaded, or read as an attribute, in tree."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_no_unused_module_names():
    """A module-level function, class or constant of src/ is used in src/
    outside its own definition, unless the benchmark probes it, the
    acceptance suite imports it, or UNUSED_NAMES_KEPT gives its reason."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    kept = {(module.rsplit(".", 1)[1], path.split(".")[0]) for _, module, path, _ in PROBES}
    acceptance = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("polycert."):
            kept.update((node.module.rsplit(".", 1)[1], a.name) for a in node.names)
    kept.update(UNUSED_NAMES_KEPT)
    uses = sum(map(name_uses, trees.values()), Counter())
    unused = [
        (module, name)
        for module, tree in trees.items()
        for node in tree.body
        for name in defined_names(node)
        if uses[name] == name_uses(node)[name] and (module, name) not in kept
    ]
    assert not unused, f"module-level names used nowhere in src/: {unused}"
