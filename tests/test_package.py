"""The package surface: the names `taukit` exports, and the names the benchmark tracer wraps."""

import ast
import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

from taukit import knit_indecomposables, parse_algebra

ROOT = Path(__file__).resolve().parents[1]


def _library_block() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _imported_names(source: str, module: str | None) -> set:
    """Names bound by `from <module> import ...` statements of the source."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            and (module is None or node.module == module)
            for alias in node.names}


def test_readme_library_block_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), "README.md", "exec"), {})
    assert out.getvalue() == "7 torsion pairs\n(7, 7)\n"


def test_package_exports_exactly_the_readme_names():
    init = (ROOT / "src" / "taukit" / "__init__.py").read_text()
    assert _imported_names(init, None) == _imported_names(_library_block(), "taukit")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # Tracer.install looks each target up by name; a missing one breaks every traced run
    tracer = _load_tracer()
    for mod_name, path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"taukit.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), path
        else:
            assert callable(getattr(owner, path)), path


def test_tracer_reads_the_census_caches():
    tracer = _load_tracer()
    idx = knit_indecomposables(parse_algebra(
        (ROOT / "fixtures" / "a3_zero_relation.alg").read_text()))
    idx.ext_dim(1, 0, 0)
    t = tracer.Tracer()
    t.indexes.append(idx)
    report = t.report()
    assert report["hom_cache_entries"] > 0
    assert report["ext_cache_entries"] > 0


def _unused_imports(path: Path) -> list:
    """The names that the imports of a module bind and that the module never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports only to re-export
    init = ROOT / "src" / "taukit" / "__init__.py"
    paths = [*sorted((ROOT / "src" / "taukit").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    unused = {path.relative_to(ROOT).as_posix(): names for path in paths
              if path != init and (names := _unused_imports(path))}
    assert unused == {}
