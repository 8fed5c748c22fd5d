"""Superintegrable quantum systems on the Darboux surfaces D_III and D_IV.

Library layout:

- :mod:`darboux.geometry`   charts, metrics, Gaussian curvature
- :mod:`darboux.specfun`    special functions and 1D model eigenproblems
- :mod:`darboux.families`   one record per potential family
- :mod:`darboux.potentials` the superintegrable potentials and their separations
- :mod:`darboux.spectra`    quantization conditions, dispersions, asymptotics
- :mod:`darboux.wavefun`    2D bound-state assembly, norms, PDE residuals
- :mod:`darboux.oracle`     independent finite-difference verification
- :mod:`darboux.classical`  constants of motion, Poisson algebra, flows
- :mod:`darboux.verify`     the verification suites behind ``darboux verify``
- :mod:`darboux.cli`        batch computation front end
"""

__version__ = "0.1.0"
