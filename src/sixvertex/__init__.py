"""Numerical verification toolkit for the anti-periodically twisted
six-vertex transfer matrix and the domain-wall partition function."""

__version__ = "0.1.0"
