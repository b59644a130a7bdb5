import sys
from pathlib import Path

# The benchmark runs against the sources of its own checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
