import sys
from pathlib import Path

# the benchmark is a set of scripts, not a package: import them by path
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
