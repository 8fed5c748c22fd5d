"""Exception hierarchy shared by all darboux modules."""


class DarbouxError(Exception):
    """Base class for all library errors."""


class ParamError(DarbouxError):
    """Space or potential parameters violate a documented constraint."""


class LevelError(ParamError, IndexError):
    """A level index lies outside the ladder of a model's bound states."""


class DomainError(DarbouxError):
    """A coordinate point lies outside its chart's domain."""


class UnsupportedError(DarbouxError):
    """The requested operation has no defined result for these inputs."""


class UnsupportedChartError(UnsupportedError):
    """No closed form exists for this potential/chart combination."""


class BlowupError(DarbouxError):
    """A flow left its chart domain, or could not be integrated, within its window."""


class PoleError(DarbouxError):
    """A special function was evaluated at a pole of its parameters."""


class NoRootError(DarbouxError):
    """A bracketed root search found no sign change."""


class NoAdmissibleRootError(DarbouxError):
    """A quantization condition produced no admissible energy."""


class DivergentNormError(DarbouxError):
    """The weighted norm integral of a state does not converge."""


class GridError(DarbouxError):
    """A sampling grid is too coarse for the requested stencil."""


class ResolutionError(DarbouxError):
    """A discretization cannot resolve what it samples (a wavelength, a wall)."""
