"""flowcert: desk-scale certificates for gradient-flow convergence.

Four numerical subsystems plus an experiment harness:

- sequences: discrete summability certificates for monotone sequences whose
  steps obey a power-type drop law;
- gradientflow: finite-dimensional model flows with a verified decay
  inequality, adaptive integration, and the endpoint-controlled length bound;
- cylinder: Gaussian surface area, entropy estimates, and the discrete C^2
  graph distance for rotational graphs over the shrinking cylinder;
- mcf: rescaled curvature flow of such graphs, the empirical decay-exponent
  fit, and the closeness experiment tying the pieces together.
"""

__version__ = "0.1.0"
