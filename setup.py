"""Legacy setup shim for offline editable installs.

The execution environment has no ``wheel`` package, so PEP 660 editable
installs (``pip install -e .`` through the pyproject build backend) cannot
build the editable wheel.  This shim lets pip fall back to
``setup.py develop``.  All metadata lives in ``pyproject.toml``.
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
