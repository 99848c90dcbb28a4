"""The README's Python examples run as written."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np

import lieslam.harness

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, warmed_up):
    """Both ``python`` blocks, in order and in one namespace, on a 0.5 s
    cut of the bundled scenario."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    load = lieslam.harness.load_run_config

    def short(path):
        rc = load(path)
        return dataclasses.replace(rc, world=dataclasses.replace(rc.world, duration=0.5))

    monkeypatch.setattr(lieslam.harness, "load_run_config", short)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    result, energy = namespace["result"], namespace["energy"]
    assert energy.shape == (501,)
    assert np.array_equal(energy[result.sample_ks], result.report.lyap)


def test_readme_layout_lists_every_module():
    """The Layout table names exactly the package's modules, the package
    itself (``__init__``) aside."""
    layout = README.read_text(encoding="utf-8").split("## Layout", 1)[1]
    listed = re.findall(r"^\| `lieslam\.(\w+)`", layout, re.MULTILINE)
    package = Path(lieslam.harness.__file__).parent
    modules = [p.stem for p in package.glob("*.py") if p.stem != "__init__"]
    assert sorted(listed) == sorted(modules)
