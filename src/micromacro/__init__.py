"""Models for a displaced-single-photon light-matter entanglement experiment.

Submodules
----------
fock            truncated Fock-space states, transforms, loss, click POVMs
polarization    two-qubit states, CHSH, PPT and concurrence witnesses
tomography      joint-setting counts and maximum-likelihood reconstruction
noise           displacement-noise model for the witness-vs-size curves
spdc            detailed double-pair source model with a sampling oracle
macro           macroscopic distinguishability and effective size
hom             two-photon interference visibility and temporal overlap
memory          storage-loop pulse bookkeeping and back-displacement nulling
cli             command-line entry point producing CSV/SVG result tables

Nothing is re-exported here: import the submodule (``from micromacro import
fock``).  Only ``tomography`` imports scipy.
"""

__version__ = "0.1.0"
