"""The README's examples run as written: its library example and its config file."""

import re
import subprocess
import sys
from pathlib import Path

from mmtier.config import parse_config

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
