"""Trapped-ion entangled-photon source simulator.

Subpackages by concern:

* :mod:`ionphoton.crystal` - ion-chain statics, normal modes, spin-spin
  coupling and gradient sideband matrices
* :mod:`ionphoton.cavity` - conditional Raman-emission dynamics in a lossy
  two-mode cavity, optimal stop times and success probabilities
* :mod:`ionphoton.gates` - ion-register unitaries, pulse sequences in run
  order, refocused zz compilation and CNOT construction
* :mod:`ionphoton.protocol` - the end-to-end N-photon protocol, outcome
  tables and reproducible Monte Carlo sampling
* :mod:`ionphoton.cli` - batch front-end; the presets are in :mod:`ionphoton.config`
"""

__version__ = "0.1.0"

from . import cavity, config, crystal, gates, protocol, reports  # noqa: F401
