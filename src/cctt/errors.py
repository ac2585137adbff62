"""Error classes raised by the kernel and the frontend.

Every rejection a user can provoke carries one of these; the class name is
what `--expect-fail(...)` pragmas match against.
"""


class CcttError(Exception):
    """Base class for all checker-visible failures."""

    def __init__(self, message="", **payload):
        super().__init__(message)
        self.message = message
        self.payload = payload

    @property
    def error_class(self):
        return type(self).__name__

    def __str__(self):
        if self.payload:
            extra = ", ".join(f"{k}={v}" for k, v in self.payload.items())
            return f"{self.message} [{extra}]" if self.message else extra
        return self.message


# --- telescope / context formation ---------------------------------------

class NonProperEntry(CcttError): pass


# --- ticks and clocks ------------------------------------------------------

class NotATick(CcttError): pass
class ClockMismatch(CcttError): pass
class DiamondOutsideForcing(CcttError): pass
class MalformedSubstitution(CcttError): pass
class TickEscape(CcttError): pass


# --- conversion / reduction ------------------------------------------------

class IllFormedRedex(CcttError):
    """Internal invariant breach; signals a kernel bug, never user error."""


class FuelExhausted(CcttError):
    """The whnf step budget ran out (see --max-steps)."""


# --- bidirectional checking ------------------------------------------------

class UnboundVariable(CcttError): pass
class NotAFunction(CcttError): pass
class NotALater(CcttError): pass
class TypeMismatch(CcttError): pass
class EndpointMismatch(CcttError): pass
class IncompatibleOverlap(CcttError): pass
class FaceTooLarge(CcttError): pass
class TubeMismatch(CcttError): pass
class BaseBoundaryMismatch(CcttError): pass
class ArityMismatch(CcttError): pass


# --- HIT signatures and eliminators ----------------------------------------

class ForwardConstructorReference(CcttError): pass
class BoundaryNotCovering(CcttError): pass
class BoundaryIncompatible(CcttError): pass
class CaseMissing(CcttError): pass
class CaseBoundaryMismatch(CcttError): pass
class MotiveMismatch(CcttError): pass


# --- frontend ---------------------------------------------------------------

class ParseError(CcttError): pass
class IoError(CcttError): pass


ERROR_CLASSES = {
    cls.__name__: cls
    for cls in list(globals().values())
    if isinstance(cls, type) and issubclass(cls, CcttError)
}
