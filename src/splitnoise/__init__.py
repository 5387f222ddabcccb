"""Noise sensitivity of the discrete Tanaka model.

Exact integer walk transforms, Fourier-Walsh spectral oracles, and
seeded Monte Carlo estimators for the limiting sign correlation under
partial perturbation of the driving noise, including the arc-sine
integral identity that describes the limit.
"""

__version__ = "0.1.0"
