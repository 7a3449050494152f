"""Legacy setup shim.

The execution environment has no ``wheel`` package and no network access, so
PEP-660 editable installs cannot build; ``pip install -e .`` falls back to
``setup.py develop`` through this file.  All metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
