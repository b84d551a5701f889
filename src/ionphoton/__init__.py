"""Trapped-ion entangled-photon source simulator, one module per concern.

* :mod:`ionphoton.crystal` - chain statics, normal modes, Ising couplings, sideband matrices
* :mod:`ionphoton.cavity` - conditional Raman emission in a lossy two-mode cavity
* :mod:`ionphoton.gates` - register unitaries, pulse sequences, CNOTs and the CNOT chain
* :mod:`ionphoton.protocol` - the N-photon protocol, outcome tables and Monte Carlo sampling
* :mod:`ionphoton._substream` - the sampler's per-trial random draws, in numpy lanes
* :mod:`ionphoton.config` - config parsing and checks, the size caps and the presets
* :mod:`ionphoton.reports` - builds each command's report bundle (tables, JSON, manifest)
* :mod:`ionphoton.cli` - the batch front-end: option plumbing and output echoes only
* :mod:`ionphoton.constants`, :mod:`ionphoton.errors` - SI constants; the error types
"""

__version__ = "0.1.0"

from . import cavity, config, crystal, gates, protocol, reports  # noqa: F401
