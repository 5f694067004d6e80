"""Thermodynamic variational objectives over power-mean interpolation paths.

Estimators (ELBO, IW-ELBO, Renyi, EUBO, Wasserstein, TVO, HBO), score-function
gradients, alpha tuning, and diagnostics over pluggable low-dimensional
latent-variable models, with dense-quadrature oracles that make every
estimator checkable at desk scale.  Import the modules by name (``from hvi
import models``); the package itself binds only ``__version__``.
"""

__version__ = "0.1.0"
