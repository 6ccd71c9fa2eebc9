"""Source hygiene the test suite can check with the standard library alone."""

import ast
import importlib
import re
import tomllib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eukleia"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def _version(text: str) -> tuple[int, int]:
    """A ``major.minor`` version as a pair of integers."""
    major, minor = text.split(".")
    return int(major), int(minor)


# The lowest Python the package supports: pyproject.toml alone names it.
FLOOR = _version(PYPROJECT["project"]["requires-python"].removeprefix(">="))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = set(_imported(tree)) - _used(tree)
    assert not unused, ", ".join(f"{path.name}:{_imported(tree)[n]}: {n!r} imported but unused" for n in sorted(unused))


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name a top-level def, class or assignment binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update((name, node.lineno) for name in targets if name.startswith("_") and not name.startswith("__"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name: line for name, line in _private_definitions(tree).items() if name not in read}
    assert not unread, ", ".join(f"{path.name}:{line}: {name!r} defined but never read" for name, line in sorted(unread.items()))


# Where the package may print: main() renders every report and error line.
PRINTERS = {("cli.py", "main")}


def _print_calls(tree: ast.Module):
    """The top-level definition (None for the module body) and line of each ``print`` call."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                yield owner, node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_prints_only_where_reports_are_rendered(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stray = [f"{path.name}:{line}: print in {owner or 'the module body'}"
             for owner, line in _print_calls(tree) if (path.name, owner) not in PRINTERS]
    assert not stray, ", ".join(stray)


# The package reads one environment variable, in cli.corpus_dir; any other
# setting is a command-line option, documented in README.
ENVIRONMENT_READERS = [("cli.py", "corpus_dir")]
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module):
    """The top-level definition (None for the module body) of each mention
    of ``os.environ`` or ``os.getenv``, by attribute, name or import."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT)
                    or (isinstance(node, ast.Name) and node.id in _ENVIRONMENT)
                    or (isinstance(node, ast.ImportFrom) and node.module == "os"
                        and any(alias.name in _ENVIRONMENT for alias in node.names))):
                yield owner


def test_environment_read_only_for_the_corpus_dir():
    reads = [(path.name, owner) for path in sorted(PACKAGE.glob("*.py"))
             for owner in _environment_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert reads == ENVIRONMENT_READERS
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    reader = next(top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "corpus_dir")
    assert "os.environ.get(CORPUS_DIR_ENV)" in {ast.unparse(node) for node in ast.walk(reader) if isinstance(node, ast.Call)}


def _pattern_sources(path: Path) -> set[str]:
    """The source of each compiled pattern at the module's top level, and of
    each string literal passed to a function of ``re``."""
    module = importlib.import_module(f"eukleia.{path.stem}")
    sources = {value.pattern for value in vars(module).values() if isinstance(value, re.Pattern)}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)):
            sources.add(node.args[0].value)
    return sources


# Integers accept ASCII digits only, and \d also matches other decimal digits
# such as "٣"; a digit class in a pattern is written [0-9].
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_patterns_name_ascii_digits(path):
    stray = [source for source in _pattern_sources(path) if "\\d" in source]
    assert not stray, f"{path.name}: \\d in {stray}"


# No module may use syntax later than the lowest Python the package supports.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_parse_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_ci_tests_the_python_floor():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    matrix = re.search(r"^ *python-version: (\[.*\])$", workflow, re.M)
    assert matrix, "no python-version matrix in tests.yml"
    assert min(map(_version, ast.literal_eval(matrix.group(1)))) == FLOOR


def test_pattern_scan_sees_the_parser_patterns():
    # The lexer's token pattern, the script lexer's, its step token read
    # again by the parser, and the split reader's ang literal, then the
    # newline search that places spans.
    dsl = importlib.import_module("eukleia.dsl")
    named = (dsl._TOKEN, dsl._SCRIPT_TOKEN, dsl._STEP, dsl._ANG)
    assert _pattern_sources(PACKAGE / "dsl.py") == {pattern.pattern for pattern in named} | {"\n"}


def _package_imports() -> dict[str, set[str]]:
    """The names ``eukleia/__init__.py`` imports from each submodule."""
    path = PACKAGE / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.module: {alias.name for alias in node.names}
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}


# Where cli.py may read an exit code: the status table, the rule that folds a
# command's reports into one code, and main(), which returns it.
EXIT_CODE_READERS = {"_EXIT_CODES", "_exit_code", "main"}


def test_exit_codes_come_from_report_statuses():
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stray = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = {top.name}
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            owners = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            owners = set()
        stray += [f"cli.py:{node.lineno}: {node.id} read in {', '.join(sorted(owners)) or 'the module body'}"
                  for node in ast.walk(top)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id.startswith("EXIT_")
                  and not owners & EXIT_CODE_READERS]
    assert not stray, ", ".join(stray)


def _top_level_definitions(tree: ast.Module):
    """Each top-level def and class, and each name a top-level assignment binds, with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _reads(node: ast.AST) -> Counter:
    """How often ``node`` reads each name, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


# Names Python or packaging tools read, not the package's own code.
UNREFERENCED = {"__all__", "__version__"}


def test_every_definition_is_used_or_exported():
    # Exported: imported by eukleia/__init__.py.
    # A helper only the tests keep alive is dead code in the package.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    package = _package_imports()
    reads = sum(map(_reads, trees.values()), Counter())
    stray = []
    for path, tree in trees.items():
        exported = package.get(path.stem, set())
        for name, node in _top_level_definitions(tree):
            if name not in exported | UNREFERENCED and reads[name] == _reads(node)[name]:
                stray.append(f"{path.name}:{node.lineno}: {name!r}")
    assert not stray, ", ".join(stray) + " defined but not used in the package or exported"


def _readme_code_words() -> set[str]:
    """Each identifier inside backticks in README.md, in a fenced block or an inline span."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S))
    return {word for span in fenced + inline for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_package_export_is_used_or_documented():
    # What the package exports, package code reads or README shows; a name
    # only the tests call belongs in the tests.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}
    reads = sum(map(_reads, trees.values()), Counter())
    documented = _readme_code_words()
    stray = []
    for module, names in sorted(_package_imports().items()):
        definitions = dict(_top_level_definitions(trees[module]))
        for name in sorted(names):
            if name not in documented and reads[name] == _reads(definitions[name])[name]:
                stray.append(f"{module}.{name}")
    assert not stray, ", ".join(stray) + " exported but neither read by the package nor named in README"


def test_package_data_ships_every_corpus_file():
    # A wheel holds only the data files these globs match: a corpus file no
    # glob matches would be missing from an installed package.
    globs = PYPROJECT["tool"]["setuptools"]["package-data"]["eukleia"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    present = {path for path in (PACKAGE / "corpus").rglob("*") if path.is_file()}
    assert present, "no corpus files"
    assert sorted(str(path.relative_to(PACKAGE)) for path in present - shipped) == []
