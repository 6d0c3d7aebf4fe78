"""Every exported name resolves, so deleting an API cannot leave a
dangling entry in an ``__all__`` list."""

import importlib
import pkgutil

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
