"""Elliptic-curve additive homomorphic encryption over a pseudo-Mersenne
prime field, with fixed-base scalar multiplication, a concealed-aggregation
simulator, and an operation-count benchmark CLI."""

__version__ = "0.1.0"
