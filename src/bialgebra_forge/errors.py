"""Shared exception types.

InputError subclasses indicate a problem with user-supplied data (exit
code 2 at the CLI); EngineError subclasses indicate a computation that
could not be carried out under the current settings.
"""


class ForgeError(Exception):
    pass


class InputError(ForgeError):
    pass


class ExprSyntaxError(InputError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownIdentifierError(InputError):
    pass


class DocumentError(InputError):
    pass


class MismatchedBasesError(InputError):
    pass


class EngineError(ForgeError):
    pass


class InexactDivisionError(EngineError):
    pass


class CapExceededError(EngineError):
    pass


class NonContractingError(EngineError):
    pass


class NonTerminatingSeriesError(EngineError):
    pass


class AntipodeError(EngineError):
    pass


class HypothesisError(EngineError):
    """A construction's precondition failed; carries the failing check labels."""

    def __init__(self, failing):
        self.failing = failing
        super().__init__("hypothesis fails: " + ", ".join(failing))
