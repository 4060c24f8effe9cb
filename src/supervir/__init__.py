"""Exact-arithmetic engine for free-field realizations of the N=0/1/2
superconformal algebras on truncated boson-fermion Fock superspaces, and
for minimal-nilpotent W-algebra structure data.

Everything, the energy bounds included, is computed over the Gaussian
rationals, and the package depends on nothing outside the standard
library.

The package root imports nothing: each name comes from the module that
defines it, so an entry point loads only the modules it runs.
"""

__version__ = "0.1.0"
