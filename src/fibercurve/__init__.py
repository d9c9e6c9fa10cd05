"""Exact-arithmetic toolkit for the curve family y^s = x(a x^r + b) and
the fiber curves attached to prescribed x-coordinate configurations."""

__version__ = "0.1.0"
