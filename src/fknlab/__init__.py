"""Exact Fourier analysis on the hypercube and a verification lab for
FKN-type variance bounds over partitions of the variables."""

__version__ = "0.1.0"
