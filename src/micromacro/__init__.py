"""Models for a displaced-single-photon light-matter entanglement experiment.

Submodules
----------
fock            truncated photon-number amplitudes, splitter unitaries, click detectors
polarization    two-qubit states, CHSH at the lab settings, PPT and concurrence witnesses
tomography      joint-setting counts and maximum-likelihood reconstruction
noise           displacement-noise model for the witness-vs-size curves, with the
                memory's storage-loop residual and jitter visibility
spdc            detailed double-pair source model with a sampling oracle
macro           macroscopic distinguishability and effective size
hom             two-photon interference visibility and temporal overlap
cli             command-line entry point producing CSV/SVG result tables

Nothing is re-exported here: import the submodule (``from micromacro import
fock``).  No submodule imports scipy.  Every definition here is
reachable from the CLI, ``validate`` or the benchmark; the slow references
the closed forms replaced live in ``tests/references.py``.
"""

__version__ = "0.1.0"
