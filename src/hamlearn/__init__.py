"""Sequential Monte Carlo learning of Ising couplings from echo experiments.

The package plays both quantum devices in software: an untrusted system that
produces measurement outcomes at hidden true couplings, and a trusted
simulator that scores hypotheses so a particle filter can learn the
couplings from adaptively designed experiments.  Import names from the
submodules (`hamlearn.models`, `hamlearn.smc`, `hamlearn.harness`, ...).
"""

__version__ = "0.1.0"
