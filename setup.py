"""Packaging for the fsbench-rocket reproduction.

``pip install -e .`` makes the ``repro`` package importable without
``PYTHONPATH=src`` and installs the ``fsbench-rocket`` console command.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def _version() -> str:
    """Single-source the version from ``repro.__version__`` (no import needed)."""
    path = os.path.join(HERE, "src", "repro", "__init__.py")
    with open(path, "r", encoding="utf-8") as handle:
        match = re.search(r"^__version__\s*=\s*[\"']([^\"']+)[\"']", handle.read(), re.M)
    if not match:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


def _long_description() -> str:
    path = os.path.join(HERE, "README.md")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    return ""


setup(
    name="fsbench-rocket",
    version=_version(),
    description=(
        "Reproduction of 'Benchmarking File System Benchmarking: It *IS* Rocket Science' "
        "(HotOS XIII): a simulated storage stack, the paper's measurement protocol, "
        "and a parallel multi-dimensional benchmark survey engine."
    ),
    long_description=_long_description(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "fsbench-rocket = repro.cli:main",
        ]
    },
    classifiers=[
        "Development Status :: 3 - Alpha",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Benchmark",
        "Topic :: System :: Filesystems",
    ],
)
