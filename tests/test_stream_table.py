"""Every sampler stream and README sampling command against the committed
table of its library version, and the exact laws on a desk grid against
their one hash, which no version changes (see stream_table.py)."""

import numpy as np
import pytest

import multiewens

import stream_table

TABLE = stream_table.load()


def _check_versions(name: str):
    assert TABLE["version"] == multiewens.__version__, (
        f"stream table is for multiewens {TABLE['version']}, the library is "
        f"{multiewens.__version__}: regenerate it with tests/stream_table.py"
    )
    if name in stream_table.NUMPY and TABLE["numpy"] != np.__version__:
        pytest.skip(
            f"{name} draws from numpy: the table was made under numpy {TABLE['numpy']},"
            f" this is numpy {np.__version__}"
        )


def test_table_covers_every_stream():
    assert set(TABLE["samplers"]) == set(stream_table.SAMPLERS)
    assert set(TABLE["commands"]) == set(stream_table.COMMANDS)


@pytest.mark.parametrize("name", sorted(stream_table.SAMPLERS))
@pytest.mark.parametrize("seed", stream_table.SEEDS)
def test_sampler_stream(name, seed):
    _check_versions(name)
    assert stream_table.sampler_hash(name, seed) == TABLE["samplers"][name][str(seed)]


@pytest.mark.parametrize("name", sorted(stream_table.COMMANDS))
def test_readme_command_stdout(name):
    _check_versions(name)
    assert stream_table.command_stdout(name) == TABLE["commands"][name]


def test_exact_laws_unchanged():
    assert stream_table.exact_hash() == TABLE["exact"]
