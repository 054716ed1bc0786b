"""chemlinker: desk-scale text-conditioned molecule generation toolkit."""

__version__ = "0.21.0"
