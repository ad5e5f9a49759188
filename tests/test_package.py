"""The package namespace is every module's ``__all__``, and ``__version__``
is the one version literal."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiewens
from multiewens import allele_stats, measure, partitions, poisson, samplers, wf_sim, wreath

MODULES = (partitions, measure, samplers, wreath, allele_stats, poisson, wf_sim)


def test_all_is_every_module_list_in_import_order():
    expected = [name for module in MODULES for name in module.__all__]
    assert multiewens.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(multiewens, name) is getattr(module, name), name


def test_star_import_binds_the_whole_surface():
    src = str(Path(multiewens.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "from multiewens import *\n"
        "print(stationary_samples.__module__, pewens_log_pmf.__module__)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == ["multiewens.wf_sim", "multiewens.wreath"]


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_project_version_is_read_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parent.parent
    config = pyprojecttoml.read_configuration(root / "pyproject.toml", expand=True)
    assert config["project"]["version"] == multiewens.__version__
