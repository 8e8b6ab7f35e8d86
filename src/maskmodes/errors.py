"""Exception types shared across the package.

Every error the package raises on purpose is a :class:`MaskModesError`; the
command line turns one into exit code 1 with its message.
"""


class MaskModesError(Exception):
    """Base class for all maskmodes errors."""


class MalformedDocument(MaskModesError, ValueError):
    """A JSON document that is not JSON, is of another type or lacks a field it needs."""


class GridMismatch(MaskModesError):
    """Two objects that must share a sampling grid do not."""


class UnknownLabel(MaskModesError):
    """A mode label is not part of the basis it was looked up in."""


class GridTooSmall(MaskModesError):
    """Too much mode energy sits on the grid boundary for the result to be trusted."""


class EmptyGrid(MaskModesError):
    """A plane-wave grid with no retained directions."""


class AliasingDetected(MaskModesError):
    """Mask spectral content at (or beyond) the band edge is above threshold."""


class SingularNetwork(MaskModesError):
    """A cosine grating with no two-port block: its diffraction orders graze the screen
    and carry no flux, or ``u = 0`` makes them the one incident direction."""


class SpectralMismatch(MaskModesError):
    """Target field has energy where the input spectrum is effectively zero."""

    def __init__(self, message, lost_fraction=None):
        super().__init__(message)
        self.lost_fraction = lost_fraction


class OutOfRange(MaskModesError, ValueError):
    """A finite value beyond what float64 arithmetic on it can hold: a
    parameter whose square or exponential overflows, or a norm that over- or underflows."""


class PrecisionLoss(MaskModesError):
    """A result whose rounding error passes the documented 1e-10 amplitude
    accuracy: a Gaussian input whose raw expansion has a norm² further than
    2e-10 from 1 (strong squeezing, or large displacement with squeezing).
    The test suite's two-mode closed-form oracle raises it too, where its
    cancelling sum has a rounding bound above 1e-10 (some twenty photons per
    port).  The covariance oracle raises it for a purity residual that
    passes its tolerance but not the covariance's own rounding bound (strong
    squeezing)."""


class UnitarityError(MaskModesError):
    """A matrix promised to be unitary is not, beyond tolerance."""


class NonPhysical(MaskModesError):
    """Negative occupation numbers or similar impossible parameters."""


class DimensionMismatch(MaskModesError):
    """Mode counts of two objects disagree."""


class EmptyPartition(MaskModesError):
    """An output subset that is empty or names a mode the network lacks, a
    bipartition whose subset covers every mode, or one whose subset entries
    or mode count are not integers."""


class TooManyModes(MaskModesError):
    """A full bipartition scan was requested beyond the supported mode count."""


class NotPure(MaskModesError):
    """A covariance matrix fails the pure-state purity condition."""


class NotGaussian(MaskModesError):
    """An input with Fock photons given to the Gaussian covariance oracle."""


class InvalidEfficiency(MaskModesError):
    """Absorption efficiency outside (0, 1]."""


class CompileTooLarge(MaskModesError):
    """A command whose arrays would pass the documented memory limit."""


class StateTooLarge(MaskModesError):
    """A state would hold more terms than supported; carries the estimated count."""

    def __init__(self, message, estimated_terms=None):
        super().__init__(message)
        self.estimated_terms = estimated_terms
