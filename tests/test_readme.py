"""The README's library example runs as written and its config example parses."""

import os
import re
import subprocess
import sys
from pathlib import Path

import otocsim
from otocsim.config import parse_config

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    package_root = str(Path(otocsim.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_readme_config_example_parses_into_every_block():
    text = re.search(r"```ini\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    config = parse_config(text, source="README.md")
    for block in ("system", "otoc", "sampling", "angles", "dressing"):
        assert getattr(config, block) is not None, block
