"""The README's examples run as written, its library example and its config file, and
the program names it cites exist."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import mmtier
from mmtier.config import parse_config

import mc_oracle

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str) -> str:
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    return block


def test_library_example_runs():
    # A fresh interpreter (conftest puts src/ on its PYTHONPATH), every warning an error.
    out = subprocess.run([sys.executable, "-W", "error", "-c", _block("python")],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_config_example_parses():
    cfg = parse_config(_block("ini"))
    assert (cfg.rf_chains, cfg.blockage, cfg.mc_trials) == (12, "exponential", 10_000)


PACKAGE_MODULES = {name: importlib.import_module(f"mmtier.{name}")
                   for name in ("channel", "analytics", "geometry", "montecarlo", "config", "cli")}
ROOTS = {**PACKAGE_MODULES, "mmtier": mmtier, "mc_oracle": mc_oracle}


def _has_path(obj, path) -> bool:
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_program_names_resolve():
    # Outside the code blocks, every backticked private name (`_x`) is an
    # attribute of an mmtier module or of mc_oracle, and every dotted name rooted
    # in the program (`module._x`, `Class.attr`, `mc_oracle.x`) resolves, so
    # renaming or deleting what the README names fails here. Dotted names rooted
    # elsewhere (numpy, scipy, json, file names) are not checked.
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.DOTALL | re.MULTILINE)
    checked, missing = 0, []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", prose))):
        root, *path = name.split(".")
        if not path:
            if not root.startswith("_"):
                continue
            found = any(hasattr(module, root) for module in ROOTS.values())
        elif root in ROOTS or hasattr(mmtier, root):
            found = _has_path(ROOTS.get(root) or getattr(mmtier, root), path)
        else:
            continue
        checked += 1
        if not found:
            missing.append(name)
    assert not missing
    assert checked >= 20, checked
