import sys
from pathlib import Path

from hypothesis import settings

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# property tests draw the same examples on every run, and exact arithmetic
# on a loaded host must not trip a per-example deadline
settings.register_profile("topogallery", deadline=None, derandomize=True)
settings.load_profile("topogallery")
