"""Standard-library lint: every import is used, every ``__all__`` entry exists,
the package imports no scipy, only the CLI sets the allocator policy and
writes CSV or JSON, every JSON writer in it passes allow_nan=False, every exception it raises is one
the CLI reports, every code name the README gives still exists, the
README's API table names only package code, every package name the
benchmark (``perfbench``) reads exists, and every public package name is
reached by code outside the tests, only the kernel's reducer
(``estimators._reduce``) iterates its blocks (``estimators._knot_blocks``),
and only ``estimators`` and training's step (``gradients``) read the reducer
or its forms (``_path_form``): every other curve takes ``local_evidence_curve``.

Parses each ``hvi`` module, each script, each test module and the
benchmark's workloads and tracer with ``ast``; nothing is imported.
A name counts as used when it is read anywhere in the file, appears in a
string annotation, or is re-exported through ``__all__``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = [path for directory in ("src/hvi", "scripts", "tests")
         for path in sorted((ROOT / directory).glob("*.py"))]


def _imports(tree: ast.Module) -> dict:
    """Bound name -> line, for every import except ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _all_entries(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _read(tree: ast.AST) -> set:
    """Names read anywhere in ``tree``, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _read(ast.parse(annotation.value, mode="eval"))
    return names


def _defined(tree: ast.Module) -> set:
    """Names bound at module level."""
    names = set(_imports(ast.Module(body=tree.body, type_ignores=[])))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read(tree) | set(_all_entries(tree))
    imports = _imports(tree)
    unused = {name: line for name, line in imports.items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_all_names_are_defined(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = sorted(set(_all_entries(tree)) - _defined(tree))
    assert not missing, f"{path.name}: __all__ names that are not defined {missing}"


def test_every_private_module_name_is_read():
    # a private helper nothing in the package reads is dead code
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src/hvi").glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= _read(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}
    unread = sorted(f"{file}: {name}" for file, tree in trees.items()
                    for name in _defined(tree) - set(_imports(tree))
                    if name.startswith("_") and not name.startswith("__") and name not in read)
    assert not unread, f"module-level private names nothing in src/hvi reads: {unread}"


def _imported_modules(tree: ast.Module) -> list:
    """(top-level module, line) of every import anywhere in ``tree``, functions included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.split(".")[0], node.lineno))
    return found


def test_the_package_imports_no_scipy():
    # scipy is a test dependency only: importing scipy.special and scipy.spatial
    # took about two thirds of a CLI process's start-up, and an import moved
    # into a function would only move that cost into the first call
    found = [f"{path.name}:{line}" for path in sorted((ROOT / "src/hvi").glob("*.py"))
             for module, line in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
             if module == "scipy"]
    assert not found, f"scipy imports in src/hvi: {found}"


def test_only_the_cli_sets_the_allocator_policy():
    # glibc's allocator policy is process-wide, so only the application entry
    # point sets it, and importing any other hvi module changes no process setting
    setters = sorted(path.name for path in (ROOT / "src/hvi").glob("*.py")
                     if re.search(r"\bmallopt\b", path.read_text())
                     or "ctypes" in dict(_imported_modules(ast.parse(path.read_text()))))
    assert setters == ["cli.py"]


def test_only_the_cli_serializes():
    # the config and output formats have one home: library records are plain
    # data, and only hvi.cli reads them from JSON or lays them out as CSV or JSON
    found = {}
    for path in sorted((ROOT / "src/hvi").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found[path.name] = sorted(
            [f"{line}: imports {module}" for module, line in _imported_modules(tree)
             if module in ("json", "csv")]
            + [f"{node.lineno}: defines {node.name}" for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in ("to_json", "from_json", "csv_row")])
    assert found.pop("cli.py")
    stray = {name: where for name, where in found.items() if where}
    assert not stray, f"serialization outside hvi.cli: {stray}"


def _json_writes(tree: ast.Module) -> list:
    """Every ``json.dump(...)`` and ``json.dumps(...)`` call in ``tree``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"]


def test_every_json_writer_rejects_non_finite_numbers():
    # json writes nan and inf as NaN and Infinity tokens, which are not JSON,
    # unless it is given allow_nan=False
    calls = {f"{path.name}:{call.lineno}": call for path in sorted((ROOT / "src/hvi").glob("*.py"))
             for call in _json_writes(ast.parse(path.read_text(), filename=str(path)))}
    assert calls
    lax = sorted(where for where, call in calls.items()
                 if not any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False for kw in call.keywords))
    assert not lax, f"json writers without allow_nan=False: {lax}"


def _raised(tree: ast.Module) -> list:
    """(exception class name, line) of every ``raise`` in ``tree``; a bare raise names None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((exc.id if isinstance(exc, ast.Name) else None, node.lineno))
    return found


def test_every_raise_is_an_error_the_cli_reports():
    # hvi.cli.main prints a ValueError or TypeError as one "error:" line; any
    # other exception type would reach the user as a traceback
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src/hvi").glob("*.py"))}
    bases = {node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def reported(name):
        return name in ("ValueError", "TypeError") or any(map(reported, bases.get(name, ())))

    stray = sorted(f"{file}:{line} ({name})" for file, tree in trees.items()
                   for name, line in _raised(tree) if not reported(name))
    assert not stray, f"raises of types hvi.cli.main does not report: {stray}"


def _readme_names() -> set:
    """Backticked README tokens that name code: a Python identifier with an
    underscore, or a dotted name under ``hvi.``; fenced code blocks are skipped."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return {token for token in re.findall(r"`([^`]+)`", text)
            if re.fullmatch(r"hvi(\.\w+)+|[A-Za-z_]\w*", token)
            and (token.startswith("hvi.") or "_" in token)}


def test_every_code_name_in_the_readme_exists():
    # the README must not name code that has been deleted or renamed
    names = _readme_names()
    assert names
    code = "\n".join(path.read_text() for directory in ("src/hvi", "tests")
                     for path in sorted((ROOT / directory).glob("*.py")))
    missing = sorted(name for name in names if not re.search(rf"\b{re.escape(name)}\b", code))
    assert not missing, f"README names that occur nowhere in src/hvi or tests: {missing}"


def _api_table_names() -> list:
    """Backticked code names in the rows of the README's "What's in the box" table: an
    identifier, or a dotted name such as ``hvi.paths`` or ``paths._TILE_ELEMENTS``."""
    section = (ROOT / "README.md").read_text().split("## What's in the box", 1)[1].split("\n## ")[0]
    rows = "\n".join(line for line in section.splitlines() if line.startswith("| `"))
    return [token for token in re.findall(r"`([^`]+)`", rows)
            if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", token)]


def test_the_readme_api_table_names_only_package_code():
    # the table advertises the library: a name that only the tests define (an
    # oracle in tests/oracles.py, say) does not belong in it
    sources = {path.stem: path.read_text() for path in sorted((ROOT / "src/hvi").glob("*.py"))}
    names = _api_table_names()
    assert "hvi.paths" in names and "PathCurve" in names

    def found(name):
        *module, last = name.removeprefix("hvi.").split(".")
        if name.startswith("hvi.") and not module:
            return last in sources
        text = sources.get(module[0], "") if module else "\n".join(sources.values())
        return re.search(rf"\b{re.escape(last)}\b", text) is not None

    missing = sorted({name for name in names if not found(name)})
    assert not missing, f"README API table names that occur nowhere in src/hvi: {missing}"


def _hvi_root(node) -> bool:
    """Whether ``node`` is ``hvi`` or ``self.hvi``, the package as the benchmark holds it."""
    return (isinstance(node, ast.Name) and node.id == "hvi"
            or isinstance(node, ast.Attribute) and node.attr == "hvi"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _hvi_attributes(tree: ast.Module) -> set:
    """(module, name) of every ``hvi.<module>.<name>`` that ``tree`` reads or rebinds,
    through ``hvi``, ``self.hvi`` or a variable bound to ``hvi.<module>``."""
    aliases = {node.targets[0].id: node.value.attr for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
               and isinstance(node.value, ast.Attribute) and _hvi_root(node.value.value)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if _hvi_root(node.value.value):
                found.add((node.value.attr, node.attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                found.add((aliases[node.value.id], node.attr))
    return found


def _literal(tree: ast.Module, name: str):
    """The literal value bound to ``name`` at the top level of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_every_package_name_the_benchmark_reads_exists():
    # perfbench drives the package from outside and does not change with it, so
    # a name it reads that the package deletes or renames fails every benchmark run
    bench = {name: ast.parse((ROOT / "perfbench" / name).read_text(), filename=name)
             for name in ("workloads.py", "tracer.py")}
    package = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted((ROOT / "src/hvi").glob("*.py"))}
    read = set().union(*map(_hvi_attributes, bench.values()))
    layers = _literal(bench["tracer.py"], "LAYERS")
    missing = sorted(f"hvi.{module}" for module in layers if module not in package)
    missing += sorted(f"hvi.{module}.{name}" for module, name in read
                      if module not in package or name not in _defined(package[module]))
    # the train workload rebinds gradients.draw_batch to time train's steps
    assert ("gradients", "draw_batch") in read
    # the tracer wraps each evaluator and the sampler on the class itself
    model_class = next(node for node in package["models"].body
                       if isinstance(node, ast.ClassDef) and node.name == "LatentModel")
    methods = {node.name for node in model_class.body if isinstance(node, ast.FunctionDef)}
    missing += [f"LatentModel.{method}" for method in (
        *_literal(bench["tracer.py"], "MODEL_EVALUATORS"), "sample_proposal")
        if method not in methods]
    assert not missing, f"package names the benchmark reads that do not exist: {missing}"


def _reached(tree: ast.Module) -> set:
    """(module, name) of every ``from <...>.<module> import <name>`` in ``tree`` and of every
    ``<module>.<name>`` it reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found |= {(node.module.rpartition(".")[2], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add((node.value.id, node.attr))
    return found


def _loaded_by_its_module(tree: ast.Module, name: str) -> bool:
    """Whether a top-level statement of ``tree`` other than ``name``'s definition reads it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defines = node.name == name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            defines = name in _defined(ast.Module(body=[node], type_ignores=[]))
        else:
            defines = False
        if not defines and name in _read(node):
            return True
    return False


def test_every_public_name_is_reached_outside_the_tests():
    # the package keeps only what a command, a script or the benchmark reaches:
    # a public name that only the tests call is a second route to a computation
    package = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted((ROOT / "src/hvi").glob("*.py"))}
    workloads = ROOT / "perfbench" / "workloads.py"
    reached = _hvi_attributes(ast.parse(workloads.read_text(), filename=str(workloads)))
    for path in [*sorted((ROOT / "scripts").glob("*.py")), workloads]:
        reached |= _reached(ast.parse(path.read_text(), filename=str(path)))
    for module, tree in package.items():
        reached |= {(m, name) for m, name in _reached(tree) if m != module}
    unreached = sorted(f"{module}.{name}" for module, tree in package.items()
                       for name in _all_entries(tree)
                       if (module, name) not in reached and not _loaded_by_its_module(tree, name))
    assert not unreached, f"public names only the tests reach: {unreached}"


def test_only_the_reducer_iterates_the_knot_blocks():
    # one pass forms every statistic a caller asks for; a second loop over the
    # blocks would redo the block math that the reducer already does
    found = []
    for path in sorted((ROOT / "src/hvi").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}: {func.name}" for node in ast.walk(func)
                          if isinstance(node, ast.Name) and node.id == "_knot_blocks"
                          or isinstance(node, ast.Attribute) and node.attr == "_knot_blocks"]
    assert found == ["estimators.py: _reduce"], found


def test_every_other_curve_takes_the_public_route():
    # a module that reduces its own forms is a second curve route, and it hides
    # its curves from a tracer that wraps the public functions only
    private = {"_reduce", "_path_form"}
    found = []
    for path in sorted((ROOT / "src/hvi").glob("*.py")):
        if path.stem in ("estimators", "gradients"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = set(_imports(tree)) | _read(tree)
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        found += [f"{path.name}: {name}" for name in sorted(names & private)]
    assert not found, found
