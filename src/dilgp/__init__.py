"""Domain-invariant Gaussian-process regression and Bayesian optimization.

The package trains a GP whose kernel parameters are penalized for fitting an
adversarially chosen soft split of the training data unevenly, which helps
when test data come from a shifted distribution. A BO loop, synthetic
shifted-cluster datasets and a PID-tuning flight simulator exercise it.
Import from the submodules (dilgp.train, dilgp.gp, ...): the package itself
exports only __version__.
"""

__version__ = "0.1.0"
