"""Every exported name resolves, so deleting an API cannot leave a
dangling entry in an ``__all__`` list, no module reaches into another
module's private names, each shared rule's message is written once, and
each artifact format has one renderer."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import qflip


def test_every_exported_name_resolves():
    names = ["qflip"] + [
        f"qflip.{info.name}"
        for info in pkgutil.iter_modules(qflip.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    assert "qflip.records" in names
    dangling = [
        f"{name}.{export}"
        for name in names
        for module in [importlib.import_module(name)]
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert dangling == []


def test_no_module_imports_another_modules_private_name():
    """Helpers shared across modules are public; ``from .records import
    _object`` would hide a second user of a private helper."""
    package = pathlib.Path(qflip.__file__).parent
    imports = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "qflip")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imports == []


@pytest.mark.parametrize(
    "message",
    [
        "qubit count must be in", "unknown preset", "out of range for", "(m=",
        "counts sum to", "exceeds shots=", "spam[0] must be 1", "no channel for",
        "empty selection of", "is not an integer", "must be in [0, 0.5)",
        "takes one probability per qubit", "seed must be an integer, got",
    ],
)
def test_each_shared_rule_message_is_written_once(message):
    """A rule shared by several entry points has one implementation, so its
    message appears once in the package source; a second copy is a second
    implementation that can drift."""
    package = pathlib.Path(qflip.__file__).parent
    places = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for _ in range(line.count(message))
    ]
    assert len(places) == 1, places


def test_artifacts_have_one_renderer_each():
    """``records.write_csv`` and ``records.write_json`` render every CSV and
    JSON artifact: no module imports csv or calls json.dump, a second
    writer whose bytes could drift from theirs."""
    package = pathlib.Path(qflip.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "csv")
        or (
            isinstance(node, ast.Attribute) and node.attr == "dump"
            and isinstance(node.value, ast.Name) and node.value.id == "json"
        )
    ]
    assert found == []
