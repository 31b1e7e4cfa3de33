"""Every `pvlc` name the benchmark scripts call exists.

`perfbench/workload.py` and `perfbench/make_reference.py` run outside this
suite, so a change that deletes or renames a name they use would otherwise
pass here and break only the benchmark.  The scripts are parsed with `ast`,
never imported or run.  The names collected are:
- every attribute read off a `pvlc` module name (`link.run_link`, `pvlc.cli`);
- every `(module, "name", ...)` target returned by `workload.cli_targets`,
  which the tracer patches by name;
- every `from pvlc.<module> import name`.
Only names are checked, not signatures or dataclass fields.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = ("workload.py", "make_reference.py")


def pinned_names(tree):
    """(module, name) pairs the parsed script reads from pvlc."""
    modules = {}   # local name -> pvlc module path
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names if a.name.split(".")[0] == "pvlc"})
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "pvlc":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "pvlc":
                    modules[alias.asname or alias.name] = f"pvlc.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.FunctionDef) and node.name == "cli_targets":
            for target in node.body[-1].value.elts:   # the function ends in `return [(module, "name", ...), ...]`
                module, attr = target.elts[:2]
                names.add((modules[module.id], attr.value))
    return names


def all_pinned_names():
    return sorted(set().union(*(pinned_names(ast.parse((PERFBENCH / s).read_text(encoding="utf-8")))
                                for s in SCRIPTS)))


def test_parser_finds_the_patched_and_imported_names():
    names = all_pinned_names()
    assert ("pvlc.cli", "receive") in names            # a cli_targets entry only
    assert ("pvlc.link", "LinkConfig") in names        # a from-import in make_reference.py
    assert ("pvlc.experiments", "sweep_ber_vs_m") in names


@pytest.mark.parametrize("module,name", all_pinned_names())
def test_pinned_name_exists(module, name):
    found = importlib.import_module(module)
    if module == "pvlc" and not hasattr(found, name):   # `from pvlc import cli` may name a submodule not yet loaded
        importlib.import_module(f"pvlc.{name}")
    assert hasattr(found, name), f"perfbench calls {module}.{name}, which is gone"
