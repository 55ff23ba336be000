"""Package exception types, and the finiteness check of the domain dataclasses."""
import cmath


class NumericalError(RuntimeError):
    """A numerical procedure failed (instability, non-convergence)."""


def check_finite(obj, *names: str) -> None:
    """Raise ValueError unless each named field of obj is a finite real or complex number."""
    for name in names:
        value = getattr(obj, name)
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
