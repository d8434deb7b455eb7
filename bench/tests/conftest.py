import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
os.environ.setdefault("STF_SPDE_THREADS", "1")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
