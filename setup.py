"""Setup shim.

This file exists so that ``pip install -e .`` and ``python setup.py develop``
work on environments whose setuptools/pip combination predates full PEP 660
editable-install support (such as offline machines without the ``wheel``
package).

The install requirements are ``networkx`` (graph input) and ``numpy`` >= 1.23
(the array backend of the round engine, the simulator's knowledge store and the
analytics kernels); there is no optional accelerator and no pure-Python
fallback.
"""

from setuptools import find_packages, setup

setup(
    name="repro-hybrid-nq",
    version="0.5.0",
    description=(
        "Reproduction of conf_podc_ChangHLS24: universally optimal information "
        "dissemination in the HYBRID model, with a batch round-engine simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["networkx", "numpy>=1.23"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
