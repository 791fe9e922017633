"""Models for a displaced-single-photon light-matter entanglement experiment.

Submodules
----------
ranges          declared parameter ranges and every model parameter dataclass
fock            real truncated photon-number amplitudes and one cached splitter table
polarization    density-matrix check, two-qubit states, CHSH, PPT, concurrence
tomography      joint-setting counts and maximum-likelihood reconstruction
noise           displacement-noise model for the witness-vs-size curves, with the
                memory's storage-loop residual and jitter visibility
spdc            detailed double-pair source model with a sampling oracle
macro           macroscopic distinguishability and effective size
hom             two-photon interference visibility and temporal overlap
cli             command-line CSV/SVG tables; a subcommand loads only what it runs

Nothing is re-exported here: import the submodule (``from micromacro import
fock``).  No submodule imports scipy.  Every definition here is
reachable from the CLI, ``validate`` or the benchmark; the slow references
the closed forms replaced live in ``tests/references.py``.
"""

__version__ = "0.1.0"
