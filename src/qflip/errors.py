"""Exception hierarchy shared across the package, plus the formatter its
messages use to list missing entries, the empty-selection rule and the
selection rule: a set of depths or input states is its sorted distinct values.

The CLI maps these onto process exit codes; library callers can catch
QflipError to handle anything raised by this package.
"""

from .transforms import check_basis_indices, check_depths


class QflipError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QflipError):
    """Invalid user-supplied arguments, files, or configuration."""


class CoverageError(QflipError):
    """A dataset or model is missing entries required by the requested
    operation (depths, input states, or fit points)."""


class NumericError(QflipError):
    """A numerical step failed or produced an unusable result."""


def format_missing(items, label=str) -> str:
    """Comma list of the first 8 missing items, plus the total when cut."""
    shown = ", ".join(label(item) for item in items[:8])
    if len(items) > 8:
        shown += f", ... ({len(items)} total)"
    return shown


def require_selected(items, what: str) -> None:
    """CoverageError when items, a selection of depths or input states, is empty."""
    if len(items) == 0:
        raise CoverageError(f"empty selection of {what}")


def select(values, n: int | None = None) -> list:
    """The sorted distinct values, as Python ints, of a selection of depths
    or, given n, of basis indices of n qubits; CoverageError when it is
    empty, ValueError from ``check_depths`` or ``check_basis_indices``."""
    checked = check_depths(values) if n is None else check_basis_indices(values, n)
    chosen = sorted(set(checked.reshape(-1).tolist()))
    require_selected(chosen, "depths" if n is None else "input states")
    return chosen
