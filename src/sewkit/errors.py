"""Exception types shared across the package."""


class SewkitError(Exception):
    """Base class for package errors."""


class DomainMismatch(SewkitError):
    """Maps or spaces do not share the required source/target."""


class ModelDomainError(SewkitError):
    """A flow model was evaluated outside its admissible region."""


class EndpointMismatch(SewkitError):
    """Endpoints of subdivisions, paths or homotopies do not line up."""


class InadmissibleRegularity(SewkitError):
    """Declared regularity constants are inconsistent (e.g. alpha+beta <= 1)."""


class WrongMode(SewkitError):
    """An operation received defect data of the wrong mode (sewing vs knitting)."""


class BoundViolation(SewkitError):
    """A certified inequality failed on measured data."""


class NonConvergence(SewkitError):
    """Refinement hit the level cap before meeting the tolerance."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NonFiniteValue(SewkitError):
    """A probed value or distance is NaN or infinite, so no bound can hold."""


class InsufficientSamples(SewkitError, ValueError):
    """Certification samples are too few or span too narrow a range of gaps."""


class ConfigError(SewkitError):
    """An experiment configuration is missing or malformed."""
