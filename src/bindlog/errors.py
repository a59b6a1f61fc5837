"""Exceptions and the check-result type shared by the kernel modules."""

from __future__ import annotations

from dataclasses import dataclass


class BindLogError(Exception):
    """Base class for all kernel errors."""


class ParseError(BindLogError):
    def __init__(self, message: str, pos: int | None = None, line: int | None = None):
        self.message = message  # without the location, so a reader can relocate it
        self.pos = pos
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif pos is not None:
            where = f" (at offset {pos})"
        super().__init__(message + where)


class SortMismatch(BindLogError):
    def __init__(self, path: tuple[int, ...], expected: str, found: str):
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(f"sort mismatch at {path_str(path)}: expected {expected}, found {found}")


class IndexOutOfRange(BindLogError):
    def __init__(self, path: tuple[int, ...], i: int, n: int):
        self.path = path
        self.i, self.n = i, n
        super().__init__(f"index {i}_{n} out of range at {path_str(path)} (need 1 <= i <= n)")


class StepBudgetExceeded(BindLogError):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"rewrite step budget exceeded ({budget} steps)")


class CongruenceBudgetExceeded(StepBudgetExceeded):
    pass


class NotAnFTerm(BindLogError):
    pass


class UnboundVariable(BindLogError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} has no value in the current context or assignment")


class InfiniteDomainExhaustionRequested(BindLogError):
    pass


class InvalidSourceProof(BindLogError):
    pass


def path_str(path: tuple[int, ...]) -> str:
    return "root" if not path else ".".join(str(i) for i in path)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a structural check; `kind` names the violation when not ok.

    `path` addresses the offending node: child indices from the root, where a
    proof node's premises and a term node's argument slots both count from 0.
    Test `ok`: a result object is always truthy, failed or not.
    """

    ok: bool
    kind: str | None = None
    path: tuple[int, ...] | None = None
    message: str = ""

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return f"{self.kind} at {path_str(self.path or ())}: {self.message}"

    @staticmethod
    def passed() -> "CheckResult":
        return CheckResult(True)

    @staticmethod
    def failed(kind: str, path: tuple[int, ...], message: str) -> "CheckResult":
        return CheckResult(False, kind, path, message)
