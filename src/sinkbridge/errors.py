class ShapeError(ValueError):
    """Operands have incompatible shapes or dimensions."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class ConfigError(ValueError):
    """A configuration names an unknown setting."""
