"""Exception hierarchy shared by the engine.

Every governance-level failure carries a stable ``code`` (the class name)
so runtime rejections can be logged and compared without string matching.
"""

from __future__ import annotations


class CovenantError(Exception):
    """Base class for all engine errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class ParseError(CovenantError):
    """Syntax error in a community specification source."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
        detail = f"{line}:{column}: {message}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class GovernanceError(CovenantError):
    """Base for token/runtime rule violations (rejected, not fatal)."""


# deontic_core
class UnknownIssuer(GovernanceError):
    pass


class UnresolvedHolder(GovernanceError):
    pass


class NotHolder(GovernanceError):
    pass


class NotABurden(GovernanceError):
    pass


class CycleDetected(GovernanceError):
    pass


class TerminalState(GovernanceError):
    pass


class DanglingEvidence(GovernanceError):
    pass


class NotIssuer(GovernanceError):
    pass


class NotRevocable(GovernanceError):
    pass


class UnknownAgent(GovernanceError):
    pass


class MalformedChain(GovernanceError):
    pass


class UnknownToken(GovernanceError):
    pass


# community_runtime
class InvalidTemplate(CovenantError):
    pass


class CardinalityExceeded(GovernanceError):
    pass


class KindMismatch(GovernanceError):
    pass


class UnknownRole(GovernanceError):
    pass


class UnknownPrincipal(GovernanceError):
    pass


class NameCollision(GovernanceError):
    """An agent would share its name with a principal, a role or a group."""


class UnauthorizedSpeechAct(GovernanceError):
    pass


class ProtocolViolation(GovernanceError):
    pass


class DisciplineViolation(GovernanceError):
    pass


class IntegrityError(CovenantError):
    """Audit hash chain re-verification failed."""

    def __init__(self, message: str, bad_seq: int):
        self.bad_seq = bad_seq
        super().__init__(message)


# verifier
class UnknownIdentifier(CovenantError):
    pass


class ScopeTooLarge(CovenantError):
    pass


# scenarios
class ScriptError(CovenantError):
    pass


class CannotInject(CovenantError):
    pass
