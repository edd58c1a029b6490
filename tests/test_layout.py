"""src holds only what the package itself reaches, plus its documented
entry points: test oracles live in tests/oracles.py, and every config
field has a reader outside config.py."""

import ast
import dataclasses
import importlib
import pathlib
import re
from collections import Counter

from isopedal.config import RunConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "isopedal"
README = SRC.parents[1] / "README.md"


def _named(tree):
    """How often the code under `tree` names each name: names,
    attributes, imports, and string constants (`CHECKS` names its group
    functions by string; a docstring is not a name)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _entry_points():
    """(module, name) of each import in README's "Library entry points" block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library entry points\s+```python\n(.*?)```", text, re.S).group(1)
    return [(node.module, alias.name)
            for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_every_src_definition_is_named_in_src_or_an_entry_point():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    entry = {name for _, name in _entry_points()}
    everywhere = sum(map(_named, trees.values()), Counter())
    unreached = []
    for mod, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # a name used only inside its own definition (recursion) is unreached
            elsewhere = everywhere[node.name] - _named(node)[node.name]
            if not (elsewhere or node.name in entry):
                unreached.append(f"{mod}.{node.name}")
    assert unreached == []


def test_every_run_config_field_is_read_outside_config():
    # a config knob lives as long as some module reads it: a field that
    # only config.py names is a knob without an effect
    read = {node.attr for path in SRC.glob("*.py") if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    unread = [f.name for f in dataclasses.fields(RunConfig) if f.name not in read]
    assert unread == []


def test_readme_entry_points_resolve():
    for module, name in _entry_points():
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_package_root_binds_only_the_version():
    # README's entry-point block imports submodules; the package root
    # re-exports nothing
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = [node for node in tree.body if not isinstance(node, ast.Expr)]
    assert len(bound) == 1 and isinstance(bound[0], ast.Assign), [ast.unparse(n) for n in bound]
    assert [target.id for target in bound[0].targets] == ["__version__"]


def test_no_src_function_defaults_its_jet_order():
    # every caller names the jet order it reads; a default is a knob no
    # caller sets
    defaulted = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if any(a.arg == "order" for a in with_default):
                defaulted.append(f"{path.stem}:{node.lineno}")
    assert defaulted == []


def test_no_module_level_name_is_assigned_in_two_src_modules():
    # a constant has one home, which the other modules import
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name):
                    homes.setdefault(target.id, set()).add(path.stem)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def test_src_calls_no_svd():
    # ranks come from a Gram-Schmidt that works at any dtype
    # (geometry._rank), and the largest principal angle of the S-Willmore
    # check from a 2 x 2 Gram matrix in closed form
    assert [p.stem for p in sorted(SRC.glob("*.py"))
            if _named(ast.parse(p.read_text(encoding="utf-8")))["svd"]] == []


def test_only_geometry_reads_second_partials():
    # each second-order quantity has one route: the second partials are
    # projected off the tangent plane in geometry.py, and every other
    # module reads the forms built there, taking at most first partials
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "partial"):
                args = node.args
                literal = (len(args) == 2 and not node.keywords and all(
                    isinstance(a, ast.Constant) and type(a.value) is int for a in args))
                if not (literal and args[0].value + args[1].value <= 1):
                    calls.append(f"{path.stem}:{node.lineno}")
    assert calls == []
