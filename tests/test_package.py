"""The package loads each module on first use, and its names keep resolving."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import streamcolor

SRC = Path(streamcolor.__file__).resolve().parents[1]


def fresh_python(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports streamcolor
    from the same sources as this test."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_only_what_verify_needs():
    out = fresh_python(
        "import sys, streamcolor.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'streamcolor')))"
    )
    assert out.split() == [
        "streamcolor", "streamcolor.cli", "streamcolor.core", "streamcolor.oracle",
        "streamcolor.peel",
    ]


def test_peel_stays_the_function_after_its_module_is_imported_again():
    # arb_color and sweep import the submodule streamcolor.peel
    out = fresh_python(
        "import inspect, streamcolor.arb_color, streamcolor.sweep\n"
        "from streamcolor import peel\n"
        "print(inspect.isfunction(peel), peel.__module__)"
    )
    assert out.split() == ["True", "streamcolor.peel"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(streamcolor)
    for name in streamcolor.__all__:
        assert name in listed, name
        assert getattr(streamcolor, name) is not None, name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        streamcolor.no_such_name
    assert not hasattr(streamcolor, "no_such_name")
