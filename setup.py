"""Setuptools shim for offline editable installs.

Without the ``wheel`` package, PEP 660 editable installs (``pip install
-e .``) cannot build the editable wheel; this shim lets pip fall back to
``setup.py develop``.  The repository has no ``pyproject.toml``: the
``setup()`` call below is the package's only metadata.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
