"""Exact balancing-number sequences, identity suites, and bounded power searches."""

__version__ = "0.1.0"
