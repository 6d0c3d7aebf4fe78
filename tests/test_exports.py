"""Every exported name resolves, so deleting an API cannot leave a
dangling entry in an ``__all__`` list, no module reaches into another
module's private names, each shared rule's message is written once, each
artifact format has one renderer, and the package resolves its public
names on first use."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

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


# qflip.__all__ as the package listed it when it imported every submodule
PUBLIC = {
    "fwht", "fwht_inverse", "xor_permute", "simplex_project",
    "eigenvalues_from_rates", "gate_error_matrix", "spam_matrix",
    "InputChannel", "NoiseModel", "predict_distribution", "MitigationMatrix",
    "mitigation_matrix", "pool_rates", "model_to_json", "model_from_json", "read_model",
    "write_model", "Dataset", "index_to_bits", "GroundTruth", "iid_bitflip", "depolarizing",
    "correlated_pair", "spam_only", "build_preset", "ground_truth_from_profile",
    "exact_distribution", "exact_distributions", "generate_dataset", "generate_circuits",
    "true_noise_model", "DepthAverage", "FitResult", "RbResult", "aggregate", "spectralize",
    "fit_decay", "exact_averages", "estimate_model", "estimate_model_from_averages",
    "rb_series_from_dataset", "rb_fit", "write_diagnostics", "jsd", "mitigate",
    "build_mem_matrix", "MitigationReport", "evaluate_mitigation", "QflipError",
    "ConfigError", "CoverageError", "NumericError", "__version__",
}


def fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter, where no qflip name has
    been read yet."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestLazyPackage:
    """``import qflip`` imports no submodule; each public name is imported
    from its submodule the first time it is read."""

    def test_all_keeps_the_public_names(self):
        assert len(qflip.__all__) == len(PUBLIC)
        assert set(qflip.__all__) == PUBLIC

    @pytest.mark.parametrize("name", sorted(PUBLIC - {"__version__"}))
    def test_each_name_is_its_submodules_object(self, name):
        value = getattr(qflip, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("qflip.")
        assert getattr(home, name) is value

    def test_dir_lists_every_export(self):
        listed = fresh("import qflip; print(sorted(set(qflip.__all__) - set(dir(qflip))))")
        assert listed == "[]"

    def test_star_import_binds_every_export(self):
        bound = fresh(
            "import qflip\n"
            "namespace = {}\n"
            "exec('from qflip import *', namespace)\n"
            "print(all(namespace[name] is getattr(qflip, name) for name in qflip.__all__))"
        )
        assert bound == "True"

    def test_unknown_name_raises_attribute_error_naming_qflip(self):
        with pytest.raises(AttributeError, match="module 'qflip' has no attribute 'nope'"):
            getattr(qflip, "nope")
        assert not hasattr(qflip, "nope")


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


def test_only_transforms_asks_whether_a_value_is_an_int():
    """``type(value) is int`` is the integer rule's own test; another
    module that makes it holds a private copy of the rule."""
    package = pathlib.Path(qflip.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "transforms.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(
            isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
            and side.func.id == "type"
            for side in (node.left, *node.comparators)
        )
        and any(
            isinstance(side, ast.Name) and side.id == "int"
            for side in (node.left, *node.comparators)
        )
    ]
    assert found == []


def test_each_mitigation_system_is_factored_once():
    """``MitigationMatrix`` inverts its matrix once, and that inverse gives
    both the condition number and every corrected row. np.linalg.cond or
    np.linalg.solve elsewhere would factor the same matrix a second time."""
    package = pathlib.Path(qflip.__file__).parent
    found = [
        f"{path.name}:{getattr(owner, 'name', '<module>')}:{node.attr}"
        for path in sorted(package.glob("*.py"))
        for owner in ast.parse(path.read_text()).body
        for node in ast.walk(owner)
        if isinstance(node, ast.Attribute) and node.attr in {"cond", "inv", "solve"}
        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
    ]
    assert found == ["channel.py:MitigationMatrix:inv"]


@pytest.mark.parametrize(
    "message",
    [
        "qubit count must be in", "unknown preset", "out of range for", "(m=",
        "counts sum to", "exceeds shots=", "spam[0] must be 1", "no channel for",
        "empty selection of", "is not an integer", "must be in [0, 0.5)",
        "takes one probability per qubit", "seed must be one integer >= 0, got",
        "vector entries must be finite",
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
