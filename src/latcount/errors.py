"""The package's error roots, apart from the modules that raise them, so
that ``series`` and the CLI's count commands can raise and catch them
without loading the lattice layers.  ``poset`` re-exports ``LatticeError``
and ``oracle`` re-exports ``SizeLimitExceeded``: the same classes."""


class LatticeError(Exception):
    """Base class for all structural errors raised by this package."""


class SizeLimitExceeded(LatticeError):
    """An input is above a size guard; the CLI exits 3."""
