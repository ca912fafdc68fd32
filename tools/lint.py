"""Repo lint entry point: ruff when installed, built-in fallback otherwise.

CI installs ``ruff`` and gets the real linter (configured in
``pyproject.toml``).  Offline environments without ruff fall back to a
built-in subset linter covering the highest-signal pyflakes/pycodestyle
rules so the same command is meaningful everywhere::

    python tools/lint.py [paths...]

Fallback rules: E9 (syntax errors), E711/E712 (comparisons to
None/True/False), E722 (bare except), F401 (unused imports, module
scope; ``__all__`` and ``__init__.py`` re-exports count as uses),
F811 (redefined function/class), F841 (unused local variable).

Two repo-specific rules always run (with or without ruff), both over
``src/repro``:

- REV001 rejects raw dict-based counters (``self.counters = {...}``
  and friends) outside ``repro.obs`` — metrics belong in the typed
  registry (:mod:`repro.obs.metrics`), which is what makes them
  mergeable across processes and exportable to Prometheus.
- REV002 rejects a module-level ``import scipy…`` / ``from scipy …``.
  Only the WaNet and FTrojan triggers use scipy, inside the functions
  that call it; a module-level import would make every ``repro``
  process, pool worker and server load ~140 scipy modules at start-up.

Exit code 0 when clean, 1 when violations are found.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools", "examples", "setup.py")

Violation = Tuple[Path, int, str, str]   # file, line, code, message


def iter_python_files(paths: List[str]) -> Iterator[Path]:
    for raw in paths:
        path = (REPO / raw) if not Path(raw).is_absolute() else Path(raw)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def _names_loaded(tree: ast.AST) -> set:
    """Every identifier read anywhere in the module (incl. attributes' roots)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
    return used


def _all_exports(tree: ast.Module) -> set:
    """String entries of a module-level ``__all__`` list/tuple."""
    exports = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    exports.add(element.value)
    return exports


def _check_unused_imports(path: Path, tree: ast.Module) -> Iterator[Violation]:
    if path.name == "__init__.py":           # re-export surface by convention
        return
    used = _names_loaded(tree) | _all_exports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield (path, node.lineno, "F401",
                           f"{alias.name!r} imported but unused")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                if name not in used:
                    yield (path, node.lineno, "F401",
                           f"{alias.name!r} imported but unused")


def _check_unused_locals(path: Path, tree: ast.Module) -> Iterator[Violation]:
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded = _names_loaded(func)
        escaped = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                escaped.update(node.names)
        assigned = {}
        for node in ast.walk(func):
            # Only plain single-name assignments: tuple unpacking,
            # augmented assignment, and names declared global/nonlocal
            # are exempt (matching ruff's F841).
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                name = node.targets[0].id
                if not name.startswith("_") and name not in escaped:
                    assigned.setdefault(name, node.lineno)
        for name, lineno in assigned.items():
            if name not in loaded:
                yield (path, lineno, "F841",
                       f"local variable {name!r} assigned but never used")


def _check_redefinitions(path: Path, tree: ast.Module) -> Iterator[Violation]:
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        seen = {}
        for node in scope.body if isinstance(scope, ast.Module) else scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name in seen and not _is_decorated_overload(node):
                    yield (path, node.lineno, "F811",
                           f"redefinition of unused {node.name!r} "
                           f"from line {seen[node.name]}")
                seen[node.name] = node.lineno


def _is_decorated_overload(node) -> bool:
    """Property setters / overloads legitimately reuse a name."""
    return bool(node.decorator_list)


def _check_comparisons(path: Path, tree: ast.Module) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if isinstance(comparator, ast.Constant):
                    if comparator.value is None:
                        yield (path, node.lineno, "E711",
                               "comparison to None should be 'is None'")
                    elif comparator.value is True or comparator.value is False:
                        yield (path, node.lineno, "E712",
                               "comparison to bool should be 'is' or implicit")
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            yield (path, node.lineno, "E722", "bare 'except:'")


def fallback_lint(paths: List[str]) -> int:
    violations: List[Violation] = []
    count = 0
    for path in iter_python_files(paths):
        count += 1
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            violations.append((path, exc.lineno or 0, "E999",
                               f"syntax error: {exc.msg}"))
            continue
        for check in (_check_unused_imports, _check_unused_locals,
                      _check_redefinitions, _check_comparisons):
            violations.extend(check(path, tree))
    for path, lineno, code, message in violations:
        rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        print(f"{rel}:{lineno}: {code} {message}")
    status = "clean" if not violations else f"{len(violations)} violation(s)"
    print(f"fallback lint: {count} files, {status}")
    return 1 if violations else 0


#: Names that always signal a hand-rolled metrics dict when dict-valued.
_COUNTER_NAMES = {"counters", "_counters"}

#: Names that signal one only when assigned a non-empty numeric dict
#: literal (``stats`` legitimately holds non-counter data elsewhere,
#: e.g. per-class calibration statistics in the defenses).
_STATS_NAMES = {"stats", "_stats"}

#: Constructors whose result used as a counter store triggers REV001.
_DICT_FACTORIES = {"dict", "defaultdict", "Counter", "OrderedDict"}


def _is_dict_valued(value: ast.AST) -> bool:
    if isinstance(value, ast.Dict):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _DICT_FACTORIES
    return False


def _is_numeric_dict_literal(value: ast.AST) -> bool:
    """A non-empty ``{...}`` whose values are all numeric constants —
    the classic ad-hoc counter initializer (``{"routed": 0, ...}``)."""
    return (isinstance(value, ast.Dict) and bool(value.values)
            and all(isinstance(v, ast.Constant)
                    and isinstance(v.value, (int, float))
                    and not isinstance(v.value, bool)
                    for v in value.values))


def check_raw_counters(root: Path = None) -> int:
    """REV001: raw dict-based counters outside :mod:`repro.obs`.

    Flags ``<name> = {...}`` / ``<name> = dict(...)`` (and
    ``defaultdict``/``Counter``) where ``<name>`` is an attribute or
    variable named ``counters``/``stats`` (underscore-prefixed too),
    anywhere under ``src/repro`` except ``src/repro/obs``.  Those dicts
    are exactly what the typed metrics registry replaced: they need a
    lock around every bump, cannot be merged across worker processes,
    and never show up in the Prometheus exposition.  Build a
    ``repro.obs.metrics.Registry`` instead (a read-only dict *property*
    rebuilding a legacy snapshot shape is fine — properties are
    ``FunctionDef``s, not assignments, and don't trip this).
    """
    root = root or (REPO / "src" / "repro")
    exempt = root / "obs"
    violations: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        if exempt in path.parents:
            continue
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue                     # E999 is the other checks' job
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                name = target.attr if isinstance(target, ast.Attribute) \
                    else (target.id if isinstance(target, ast.Name) else None)
                if (name in _COUNTER_NAMES and _is_dict_valued(value)) or \
                        (name in _STATS_NAMES
                         and _is_numeric_dict_literal(value)):
                    violations.append(
                        (path, node.lineno, "REV001",
                         f"raw dict counter {name!r} — use a typed "
                         f"repro.obs.metrics.Registry instead"))
    return _report(violations, "counter lint")


def _import_time_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node that runs when the module is imported: the module body,
    recursing into ``if``/``try``/class bodies but not into functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def check_module_scipy_imports(root: Path = None) -> int:
    """REV002: module-level scipy imports under ``src/repro``.

    Function-level imports are allowed: that is how the WaNet and
    FTrojan triggers load scipy only when they run.
    """
    root = root or (REPO / "src" / "repro")
    violations: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue                     # E999 is the other checks' job
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Import):
                hit = any(_is_scipy(alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = not node.level and _is_scipy(node.module or "")
            else:
                continue
            if hit:
                violations.append(
                    (path, node.lineno, "REV002",
                     "module-level scipy import — import it inside the "
                     "function that uses it"))
    return _report(violations, "scipy import lint")


def _report(violations: List[Violation], label: str) -> int:
    for path, lineno, code, message in violations:
        rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        print(f"{rel}:{lineno}: {code} {message}")
    if violations:
        print(f"{label}: {len(violations)} violation(s)")
    return 1 if violations else 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    paths = args or list(DEFAULT_PATHS)
    # The repo-specific rules run regardless of which general linter
    # backs the run — ruff has no knowledge of them.
    repo_status = check_raw_counters() | check_module_scipy_imports()
    if shutil.which("ruff"):
        print("running ruff")
        return subprocess.call(["ruff", "check", *paths], cwd=REPO) \
            or repo_status
    print("ruff not installed; running built-in fallback linter "
          "(subset of the ruff rules in pyproject.toml)")
    return fallback_lint(paths) or repo_status


if __name__ == "__main__":
    sys.exit(main())
