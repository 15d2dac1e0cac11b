"""Exception types shared across the package."""


class G2KnotError(Exception):
    """Base class for all errors raised by g2knot."""


class DegenerateForm(G2KnotError):
    """A 3-form is degenerate or split and induces no Riemannian metric."""


class NonUnitAxis(G2KnotError):
    """An axis vector that must be unit length is not."""


class DegenerateSpan(G2KnotError):
    """Vectors that must span a 3-plane are (numerically) dependent."""


class ImmersionViolation(G2KnotError):
    """A discretized loop fails the minimum-speed immersion floor."""


class UnderResolved(G2KnotError):
    """A discretized loop has too much energy near its Nyquist mode for its
    trigonometric interpolant to be trusted."""


class StepOutOfRange(G2KnotError):
    """A finite-difference step is outside the supported range."""


class ZeroCurvature(G2KnotError):
    """A curvature sample with vanishing 2-form part."""


class ConfigError(G2KnotError):
    """Invalid verification-suite configuration."""
