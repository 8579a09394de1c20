import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hankelpde"


def _unused_imports(source):
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    assert _unused_imports("import shutil\nimport os\nos.getcwd()\n") == [(1, "shutil")]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_imports(source):
    """(line, name) of each underscore name a module takes from another:
    imported by name, or read as an attribute of an imported name.
    Dunder names (__version__) are public."""
    tree = ast.parse(source)
    imported = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
                if isinstance(node, ast.ImportFrom) and _private(alias.name):
                    found.append((node.lineno, alias.name))
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id in imported]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_takes_another_modules_private_name(path):
    assert _private_imports(path.read_text()) == []


def test_a_private_import_is_caught():
    source = ("from . import __version__, fredholm\nfrom .equations import (\n"
              "    _flow,\n    residuals,\n)\n\n\nclass A:\n"
              "    def f(self):\n        return self._g(fredholm._det2)\n")
    assert _private_imports(source) == [(2, "_flow"), (10, "_det2")]


def _floatfmt_imports(source):
    """(line, name) of each name a module takes from floatfmt other than
    write_table: imported by name, or read as an attribute of the module
    imported under any alias."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "floatfmt":
                found += [(node.lineno, alias.name) for alias in node.names
                          if alias.name != "write_table"]
            else:
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "floatfmt"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[-1] == "floatfmt"}
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr != "write_table"
              and ast.unparse(node.value) in modules]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_write_table_is_taken_from_floatfmt(path):
    # the table format lives in floatfmt alone: its records, chunking and
    # separators are its own, and a module writes a table by one call
    assert _floatfmt_imports(path.read_text()) == []


def test_a_floatfmt_import_beyond_write_table_is_caught():
    source = ("from .floatfmt import _FEW, write_table\nfrom . import floatfmt as ff\n"
              "import hankelpde.floatfmt\n\n\n"
              "def f(v):\n    ff.write_table('a', [], (), v)\n"
              "    return ff._records(v), hankelpde.floatfmt.set_signs\n")
    assert _floatfmt_imports(source) == [(1, "_FEW"), (8, "_records"), (8, "set_signs")]


def _defined_name(node):
    """The name a module-level function, class or single-name assignment
    defines, else None."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return node.targets[0].id
    return None


def _dead_definitions(sources, defining):
    """(path, line, name) of each module-level function, class or
    single-name assignment of the sources named in defining whose name
    is on no other line of any source."""
    lines = [(path, number, line) for path, text in sources.items()
             for number, line in enumerate(text.splitlines(), 1)]
    dead = []
    for path in defining:
        for node in ast.parse(sources[path]).body:
            name = _defined_name(node)
            if name is not None:
                word = re.compile(r"\b%s\b" % re.escape(name))
                if not any(word.search(line) for where, number, line in lines
                           if (where, number) != (path, node.lineno)):
                    dead.append((path, node.lineno, name))
    return dead


def test_every_definition_is_used():
    # a module-level function, class or constant of the package must be
    # named on some other line of the package or of its tests
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    defining = [str(p.relative_to(ROOT)) for p in sorted(SRC.glob("*.py"))]
    assert _dead_definitions(sources, defining) == []


def test_an_unused_definition_is_caught():
    sources = {"a.py": "def used():\n    return 1\n\n\nclass Unused:\n    pass\n"
                       "LIMIT = 3\nSPARE = 4\nx, y = 1, 2\n",
               "b.py": "from a import used, LIMIT\n"}
    assert _dead_definitions(sources, ["a.py"]) == [("a.py", 5, "Unused"),
                                                     ("a.py", 8, "SPARE")]


def _unreferenced(sources, exempt=()):
    """(path, line, name) of each top-level function or class of the
    sources, (path, name) not in exempt, that no other top-level function
    or class names as code, as a name or an attribute: a docstring, a
    comment, a string or an import does not count."""
    defs = [(path, node) for path, text in sources.items() for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    named = {id(node): {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
             for _, node in defs}
    return [(path, node.lineno, node.name) for path, node in defs
            if (path, node.name) not in exempt
            and not any(node.name in named[id(other)] for _, other in defs if other is not node)]


def test_every_definition_is_run_by_the_package():
    # src/ holds what a command runs: checks only the tests need live in
    # tests/oracles.py; cli.main is the console script
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced(sources, exempt={("cli.py", "main")}) == []


def test_a_definition_named_only_in_text_is_caught():
    sources = {"a.py": ('def run():\n    """Calls helper."""\n    return Tool().go()\n\n\n'
                        "def helper():\n    pass\n\n\n"
                        "class Tool:\n    def go(self):\n"
                        '        raise ValueError("spare failed")\n\n\n'
                        "def spare():\n    return spare()\n"),
               "b.py": "# helper\nfrom a import helper, spare\nprint('helper')\n"}
    assert _unreferenced(sources, exempt={("a.py", "run")}) == [("a.py", 6, "helper"),
                                                                ("a.py", 15, "spare")]


def _callers(sources, name):
    """(path, line) of every call of name, as a plain or dotted name."""
    calls = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == name:
                    calls.append((path, node.lineno))
    return calls


# the one module that calls each name: one range finder per run
# (fredholm.Run), one factorisation per dense system (fredholm.solve_edges),
# and one caller of that, the one place a sample's path is chosen
# (fredholm.Run.solve); samples are grouped into runs in one place
# (fredholm.solve_samples), whose one caller is fredholm.evaluate_solution;
# the initial data are sampled once, by cli.parse_scenario, and every
# command reads the Scenario's p0
_ONE_CALLER = {"_range_basis": "fredholm.py", "LU": "fredholm.py",
               "solve_edges": "fredholm.py", "x_runs": "fredholm.py",
               "solve_samples": "fredholm.py", "sample_profile": "cli.py"}


@pytest.mark.parametrize("name", list(_ONE_CALLER))
def test_one_caller_in_the_package(name):
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert [path for path, _ in _callers(sources, name)] == [_ONE_CALLER[name]]


def test_a_second_caller_is_caught():
    sources = {"a.py": "def f(x):\n    return x\n\n\nf(1)\n", "b.py": "import a\na.f(2)\n"}
    assert _callers(sources, "f") == [("a.py", 5), ("b.py", 2)]


def test_a_study_solves_on_one_path():
    # every study level is one plan (its refined axes and the samples its
    # error reads), solved by one evaluate_solution call
    tree = ast.parse((SRC / "cli.py").read_text())
    study, = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "convergence_study"]
    assert len(_callers({"cli.py": ast.unparse(study)}, "evaluate_solution")) == 1


def _unraised_calls(source, name):
    """Lines of the calls of name that are not the exception of a raise
    statement: an exception type built only to be raised."""
    tree = ast.parse(source)
    raised = {id(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in raised
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_patch_error_is_only_raised(path):
    # a skipped sample is an Edges record; a PatchError exists only where
    # a caller asks for one and raises it
    assert _unraised_calls(path.read_text(), "PatchError") == []


def test_a_returned_patch_error_is_caught():
    source = ("def f(d):\n    raise PatchError(d)\n\n\n"
              "def g(d):\n    return PatchError(d)\n\n\n"
              "def h(d):\n    raise fredholm.PatchError(d, 0.0)\n")
    assert _unraised_calls(source, "PatchError") == [6]


_ENVIRONMENT = {"environ", "getenv", "putenv"}


def _environment_access(source):
    """(line, name) of each use of os.environ, os.getenv or os.putenv:
    read as an attribute of os (under any alias) or imported from it."""
    tree = ast.parse(source)
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names
                if alias.name == "os"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in _ENVIRONMENT]
        elif (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
              and isinstance(node.value, ast.Name) and node.value.id in os_names):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # a run is set by its scenario file and its command line alone, so
    # the manifest's scenario block reproduces its tolerances
    assert _environment_access(path.read_text()) == []


def test_an_environment_read_is_caught():
    source = ("import os\nimport os as system\nfrom os import getenv, path\n\n\n"
              "def f():\n    os.makedirs(path.join('a', 'b'))\n"
              "    return os.environ.get('A'), system.putenv('B', '1'), getenv('C')\n")
    assert _environment_access(source) == [(3, "getenv"), (8, "environ"), (8, "putenv")]
