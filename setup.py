"""Legacy shim: environments without the `wheel` package cannot do PEP 517
editable installs; this enables `pip install -e .` via setup.py develop."""
import setuptools
from setuptools import setup

#: Runtime dependencies, as pyproject.toml declares them.  The SciPy floor
#: is the release the LP driver (`repro.core.lp`) is verified on: it calls
#: SciPy's bundled HiGHS binding, `scipy.optimize._highspy._core`, directly.
INSTALL_REQUIRES = ["numpy", "scipy>=1.17.1", "networkx"]

# setuptools >= 61 reads the [project] table of pyproject.toml (and warns
# when setup() repeats it); older ones only see what is passed here.
_READS_PYPROJECT = int(setuptools.__version__.split(".")[0]) >= 61

setup(**({} if _READS_PYPROJECT else {"install_requires": INSTALL_REQUIRES}))
