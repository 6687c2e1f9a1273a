"""Bayesian analog forecasting for lagged spatial response fields.

A forcing field is reduced to a few spatial patterns, its coefficient
history is delay-embedded, and response coefficients some periods ahead
are forecast as kernel-weighted sums over the most similar historical
states.  Kernel bandwidth, neighbourhood size, embedding length, noise
variance, and (optionally) the mixing weight between two similarity
measures are all sampled from their joint posterior.

The package exports no names of its own; import the submodules
(``analogcast.pipeline``, ``analogcast.bayes``, ...) directly.
"""

__version__ = "0.1.0"
