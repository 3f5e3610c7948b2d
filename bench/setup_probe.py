"""One set-up in a fresh interpreter, for timing ``setup_s``.

Usage: python3 setup_probe.py <src dir> <module> <moduli> <enumerated moduli>

Imports <module> (``ringline`` or ``ringline.cli``), builds each modulus in
the comma-separated <moduli> list, enumerates the points of each modulus in
<enumerated moduli>, then prints ``ready``.  The caller times the span from
starting the interpreter to reading that line.  Nothing else is imported, so
the time is the program's own.
"""

import sys

sys.path.insert(0, sys.argv[1])
__import__(sys.argv[2])
from ringline import projline, ring  # noqa: E402

moduli = {int(d): ring.make_modulus(int(d)) for d in sys.argv[3].split(",") if d}
for d in sys.argv[4].split(","):
    if d:
        projline.enumerate_points(moduli[int(d)])
sys.stdout.write("ready\n")
sys.stdout.flush()
