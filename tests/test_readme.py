import os
import re
import subprocess
import sys
from pathlib import Path

import photonloop

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    """The README's "Python API in one minute" block runs as written."""
    section = README.read_text(encoding="utf-8").split("## Python API in one minute", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    src = str(Path(photonloop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "the example prints its calibration result"
