import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hankelpde

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs(capsys):
    # the documented library example must name only functions that exist
    # and must run as written
    text = README.read_text()
    section = text[text.index("## Library use"):]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def _public_callables():
    """name -> each public function and class a hankelpde module defines."""
    api = {}
    for info in pkgutil.iter_modules(hankelpde.__path__):
        module = importlib.import_module("hankelpde." + info.name)
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                api[name] = obj
    return api


def _stale_calls(text, api):
    """(line, call) of each backticked call `name(a, b, ...)` in text whose
    name is in api and whose arguments, all plain identifiers, are not
    the leading parameter names of api[name]."""
    found = []
    for match in re.finditer(r"`([A-Za-z_]\w*)\(([^()`]*)\)`", text):
        name, args = match.group(1), [a.strip() for a in match.group(2).split(",")]
        args = [] if args == [""] else args
        if name not in api or not all(re.fullmatch(r"[A-Za-z_]\w*", a) for a in args):
            continue
        params = list(inspect.signature(api[name]).parameters)
        if params[:len(args)] != args:
            found.append((text.count("\n", 0, match.start()) + 1, match.group(0)))
    return found


def test_readme_calls_name_the_parameters_they_document():
    assert _stale_calls(README.read_text(), _public_callables()) == []


def test_a_stale_readme_call_is_caught():
    def f(a, b, c=0):
        pass

    text = ("`f(a, b)` and `f(a, c)`\n`f(a, b, c, d)` `g(x)` `f(a, b=1)`\n"
            "`f()` `mod.f(x)`\n")
    assert _stale_calls(text, {"f": f}) == [(1, "`f(a, c)`"), (2, "`f(a, b, c, d)`")]
