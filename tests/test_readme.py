"""The README's examples run as written and say what they print."""

import math
import re
import shlex
from pathlib import Path

import numpy as np

from chiralwalk.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_library_example_gives_what_its_comments_claim():
    [block] = _blocks("python")
    names: dict = {}
    exec(block, names)
    assert names["report"].structural_class == "non-bipartite"
    assert abs(names["flux"] - math.pi / 2) <= 1e-12
    assert abs(names["p_star"] - 1.0) <= 1e-6
    assert np.shape(names["unitary"]) == (3, 3)


def test_every_command_line_parses():
    lines = [line.partition("#")[0] for block in _blocks("bash")
             for line in block.splitlines() if line.startswith("chiralwalk ")]
    assert len(lines) == 9
    for line in lines:
        argv = shlex.split(line)[1:]
        assert build_parser().parse_args(argv).command == argv[0]


def test_layout_names_every_module():
    [layout] = re.findall(r"^```\n(src/chiralwalk/\n.*?)^```$", README, flags=re.M | re.S)
    modules = {path.name for path in (ROOT / "src" / "chiralwalk").glob("*.py")}
    assert set(re.findall(r"^ +(\w+\.py) ", layout, flags=re.M)) == modules - {"__init__.py"}
