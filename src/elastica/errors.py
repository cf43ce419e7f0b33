"""Exception hierarchy shared across the package."""


class ElasticaError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(ElasticaError, ValueError):
    """Input parameters outside the admissible domain (mu > 0, mu + lambda >= 0, ...)."""


class SingularLimitError(ElasticaError, ArithmeticError):
    """A formula is evaluated at a point where it diverges.

    Raised for the traction-free CFLV coefficient at alpha = 1, where the
    4*gamma_R**(1-n) term blows up (gamma_R = 0) while the published
    alpha -> 1 limit omits it, and for the traction-free FEM spectrum at
    alpha = 1, where every displacement with u_1 + i u_2 holomorphic has zero
    energy.  The message carries the diagnostic.
    """


class RangeError(ElasticaError, ValueError):
    """Numerically supported input range exceeded (e.g. Bessel order/argument)."""


class BracketError(ElasticaError, ValueError):
    """Root bracket does not straddle a sign change."""


class DegenerateDecompositionError(ElasticaError, ArithmeticError):
    """Potential (Helmholtz) split is singular: alpha = 1 means p = s."""


class MeshError(ElasticaError, ValueError):
    """Invalid or degenerate mesh."""


class SolverError(ElasticaError, RuntimeError):
    """Eigensolver failed after the deterministic restart sequence."""


class TailBoundError(ElasticaError, ValueError):
    """Heat-trace time too small for the spectrum cutoff.

    Attributes
    ----------
    t_min : float
        Smallest admissible time for the offending spectrum.
    """

    def __init__(self, msg, t_min):
        super().__init__(msg)
        self.t_min = t_min


class WindowError(ElasticaError, ValueError):
    """Fit window invalid or ill-conditioned; message suggests a usable window."""


class SpectrumIOError(ElasticaError, ValueError):
    """Malformed spectrum file."""
