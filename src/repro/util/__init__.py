"""Shared utilities: table formatting (and, in :mod:`.svgplot`, charts)."""

from .tables import format_table

__all__ = ["format_table"]
