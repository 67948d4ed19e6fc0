"""The golden corpus (``tests/golden/check.py``) run as part of the suite."""

import os
import subprocess
import sys

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "check.py")


def test_every_command_writes_its_golden_bytes():
    result = subprocess.run([sys.executable, CHECK], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
