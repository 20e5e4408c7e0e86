import os
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent / "src"))

# CI draws the same examples on every run and prints the blob that replays
# a failure, so a red property reproduces locally with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
