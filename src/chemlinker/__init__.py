"""chemlinker: desk-scale text-conditioned molecule generation toolkit."""

__version__ = "0.20.0"
