"""Adaptive wavelet-collocation solver for 2D time-domain Maxwell."""

__version__ = "0.1.0"
