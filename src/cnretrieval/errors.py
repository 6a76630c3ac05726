"""Exception types shared across the package, and the input opener that raises them."""

import csv
from contextlib import contextmanager


class IngestError(ValueError):
    """Raised when an input file is malformed.

    The message names the offending file and, where possible, the line.
    """

    def __init__(self, message, path=None, line=None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class UnknownImageError(LookupError):
    """Raised when a score is requested for an image id the bank has never seen."""


class EvaluationError(ValueError):
    """Raised on evaluation protocol violations (empty query set, missing ground truth)."""


class SnapshotError(ValueError):
    """Raised when a snapshot file cannot be loaded (corruption, version mismatch)."""


@contextmanager
def open_text(path):
    """Open a UTF-8 text input; a byte that is not UTF-8, or a line the csv
    module cannot split, raises IngestError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except (UnicodeDecodeError, csv.Error) as exc:
            raise IngestError(f"unreadable text: {exc}", path=path) from None
