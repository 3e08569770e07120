"""The package loads each module on first use, and its names keep resolving."""

from __future__ import annotations

import functools
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


# each command's streamcolor modules beyond streamcolor, .cli and .core
# (README, Library), and whether it loads numpy.random, which only a
# generator needs; None is a bare ``import streamcolor.cli``. The path graph
# gives every coloring run one class, unless --c and --delta force more.
LOADS = {
    "import": (None, [], False),
    "maxdeg": (["maxdeg", "-i", "{dir}/graph"], [], False),
    "verify": (["verify", "-i", "{dir}/graph", "-c", "{dir}/coloring"], ["oracle"], False),
    "oracle": (["oracle", "greedy", "-i", "{dir}/graph"], ["oracle"], False),
    "peel": (["peel", "-i", "{dir}/graph", "--alpha", "1", "--gamma", "0.5", "-o", "{dir}/layers"],
             ["peel"], False),
    "gen": (["gen", "--family", "path", "--n", "5", "-o", "{dir}/gen"], ["corpus", "seeding"],
            True),
    "color-delta": (["color-delta", "-i", "{dir}/graph", "--epsilon", "0.5", "-o", "{dir}/out"],
                    ["delta_color", "oracle", "seeding"], False),
    "color-delta-classes": (
        ["color-delta", "-i", "{dir}/graph", "--epsilon", "0.5", "--c", "0.1", "--delta", "8",
         "-o", "{dir}/out"],
        ["delta_color", "oracle", "seeding"], True,
    ),
    "color-arb": (
        ["color-arb", "-i", "{dir}/graph", "--alpha", "1", "--epsilon", "0.5", "-o", "{dir}/out"],
        ["arb_color", "delta_color", "oracle", "peel", "seeding"], False,
    ),
    "sweep": (["sweep", "-s", "{dir}/spec.json", "-o", "{dir}/sweep"],
              ["arb_color", "corpus", "delta_color", "oracle", "peel", "seeding", "sweep"], True),
}


@functools.cache
def numpy_loads_random() -> bool:
    """Whether a bare ``import numpy`` loads numpy.random (numpy before 2.0
    does), so that no command can leave it out."""
    return fresh_python("import numpy, sys; print('numpy.random' in sys.modules)") == "True\n"


@pytest.mark.parametrize("command", LOADS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    argv, modules, random = LOADS[command]
    (tmp_path / "graph").write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")  # a 5-vertex path
    (tmp_path / "coloring").write_text("0 0\n1 1\n2 0\n3 1\n4 0\n")
    (tmp_path / "spec.json").write_text(
        '{"runs": [{"family": "path", "n": 5, "algorithm": "delta"}]}'
    )
    run = "" if argv is None else (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert streamcolor.cli.main({[arg.format(dir=tmp_path) for arg in argv]!r}) == 0\n"
    )
    out = fresh_python(
        "import contextlib, io, sys, streamcolor.cli\n"
        + run
        + "print(' '.join(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'streamcolor' or m == 'numpy.random')))"
    )
    assert out.split() == sorted(
        ["streamcolor", "streamcolor.cli", "streamcolor.core"]
        + [f"streamcolor.{module}" for module in modules]
        + (["numpy.random"] if random or numpy_loads_random() else [])
    )


def test_peel_is_the_module_before_and_after_its_importers_load():
    # arb_color and sweep import from the submodule streamcolor.peel
    out = fresh_python(
        "import inspect\n"
        "from streamcolor import peel\n"
        "import streamcolor.arb_color, streamcolor.sweep\n"
        "from streamcolor import peel as again\n"
        "print(inspect.ismodule(peel), again is peel, inspect.isfunction(peel.peel))"
    )
    assert out.split() == ["True", "True", "True"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(streamcolor)
    for name in streamcolor.__all__:
        assert name in listed, name
        assert getattr(streamcolor, name) is not None, name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        streamcolor.no_such_name
    assert not hasattr(streamcolor, "no_such_name")
