"""Every function, class and method of the package is used, and so is
every parameter.

An AST scan over ``src/uavisac``: a definition that no other code of the
package reads by name, and that the benchmark in ``perfbench/`` does not name
either, is left over from code that is gone. Names are matched loosely, a
method by any attribute of its name, so the scan finds definitions that
nothing could call, not every one that nothing does call. Dunder methods are
called by Python itself and are not checked. A parameter that its function's
body never reads is left over too, unless UNREAD_ALLOWED names it; a method's
receiver is not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uavisac"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# parameters (module.function.parameter) kept only for a caller outside the
# package, with the reason
UNREAD_ALLOWED = {
    "planners.evaluate_plan.reward": "perfbench/workloads.py passes it",
    "drl_mappo.run_policy_episode.seed": "perfbench/workloads.py passes it",
}


def definitions(node, prefix):
    """(qualified name, node) of each function, class and method under
    ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, DEFINITIONS):
            name = f"{prefix}.{child.name}"
            yield name, child
        yield from definitions(child, name)


def read_names(node) -> list:
    """Every name read under ``node``: bare names, attributes and the names
    an import statement takes from a module."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names += [alias.name for alias in sub.names]
    return names


def unused_definitions(sources: dict, benchmark_text: str) -> list:
    """Qualified names of the definitions in ``sources`` (module name ->
    source) that no code reads by name outside the definition itself and
    that ``benchmark_text`` does not hold as a word."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = {}
    for tree in trees.values():
        for name in read_names(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for module, tree in trees.items():
        for qualified, node in definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = read_names(node).count(name)
            if (counts.get(name, 0) == inside
                    and not re.search(rf"\b{re.escape(name)}\b", benchmark_text)):
                unused.append(qualified)
    return sorted(unused)


def test_scan_finds_an_unused_definition():
    source = ("class A:\n"
              "    def __init__(self):\n        self.x = 1\n"
              "    def kept(self):\n        return self.called()\n"
              "    def called(self):\n        return self.x\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "def entry():\n    return A().kept()\n"
              "def benchmarked():\n    pass\n"
              "def unused():\n    def inner():\n        pass\n    return inner\n")
    assert unused_definitions({"mod": source}, "lib.entry(); lib.benchmarked()") \
        == ["mod.A.recursive", "mod.unused"]


def unread_parameters(sources: dict) -> list:
    """Qualified names (function.parameter) of the parameters of each
    function in ``sources`` (module name -> source) that its body, nested
    definitions included, never reads by name. A method's ``self`` or
    ``cls`` is bound by Python and is not checked."""
    unread = []
    for module, source in sources.items():
        for qualified, node in definitions(ast.parse(source), module):
            if not isinstance(node, FUNCTIONS):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            body = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)}
            unread += [f"{qualified}.{p.arg}" for p in params
                       if p.arg not in body | {"self", "cls"}]
    return sorted(unread)


def package_sources() -> dict:
    return {".".join(path.relative_to(PACKAGE).with_suffix("").parts):
            path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}


def test_every_definition_is_used():
    benchmark = "\n".join(path.read_text()
                          for path in sorted((ROOT / "perfbench").glob("*.py")))
    assert unused_definitions(package_sources(), benchmark) == []


def test_scan_finds_an_unread_parameter():
    source = ("def f(a, b=1, *rest, c, **extra):\n"
              "    def inner():\n        return a + len(rest)\n"
              "    return inner() + c\n"
              "class A:\n"
              "    def m(self, x):\n        return self\n")
    assert unread_parameters({"mod": source}) == [
        "mod.A.m.x", "mod.f.b", "mod.f.extra"]


def test_every_parameter_is_read():
    assert unread_parameters(package_sources()) == sorted(UNREAD_ALLOWED)
