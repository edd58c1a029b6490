"""Time what one CLI invocation pays before its command starts work.

    python3 perfbench/setup_probe.py SRC_DIR CLI_ARGS...

Imports isopedal from SRC_DIR and builds the RunConfig for CLI_ARGS
(curve generation and its isotropy certification included), then
prints the seconds this took.  Interpreter start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from isopedal.cli import build_parser, load_config  # noqa: E402

load_config(build_parser().parse_args(sys.argv[2:]))
print(repr(time.perf_counter() - t0))
