"""Traced entry point for one ringline CLI request in a fresh interpreter.

Usage: python3 cli_entry.py <src dir> <dump file> <ringline argv...>

Times ``import ringline.cli`` as the span ``cli.import``, installs the
tracer's wrappers, runs ``ringline.cli.main(argv)`` inside the span
``cli.main``, writes the tracer dump to <dump file> and exits with main's
return code.  Stdout is the command's own output, unchanged.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tr  # noqa: E402


def main() -> int:
    src, dump_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    t = tr.Tracer()
    cli = t.run_span("cli.import", lambda: __import__("ringline.cli").cli)
    import ringline

    modules = {name: getattr(ringline, name)
               for name in ("ring", "symplectic", "projline", "pauli", "oracle")}
    modules["cli"] = cli
    cache = ringline.projline._points_cached
    tr.install(t, modules)
    try:
        code = t.run_span("cli.main", lambda: cli.main(argv))
    finally:
        t.uninstall()
        sys.stdout.flush()
    info = cache.cache_info()
    t.calls["projline.enumerate_points.cold"] += info.misses
    t.calls["projline.enumerate_points.warm"] += info.hits
    t.write(dump_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
