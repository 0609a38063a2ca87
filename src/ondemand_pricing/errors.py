"""Exception types shared across the package."""


class PricingError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PricingError):
    """Malformed scenario configuration (unknown keys, bad kinds, missing fields)."""


class ModelMismatch(PricingError):
    """An operation was applied to a scenario shape it does not support."""


class ZeroDensity(PricingError):
    """Valuation density is zero at a point strictly inside the support."""


class IrregularDistribution(PricingError):
    """A valuation law failed the strict regularity requirement of the solver."""


class NonFiniteRate(PricingError):
    """An earning-rate evaluation produced a non-finite value."""


class SingularSystem(PricingError):
    """A first-step linear system is singular (no admitted arrivals)."""
