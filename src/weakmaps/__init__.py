"""Verification workbench for split-epi style factorisation systems,
categories of weak maps, and bar-resolution calculations, all over exact
rational arithmetic."""

__version__ = "0.1.0"


class SchemaError(Exception):
    """Malformed input data; message carries a JSON-path style position."""


class InputError(Exception):
    """Input that loads but cannot be used; base of the layers' errors."""
