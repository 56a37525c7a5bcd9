"""Traced daemon entry point.

    python3 perfbench/daemon.py --spans PATH serve --models water ...

Installs the benchmark's layer wrappers and turns on plan profiling for the
zoo models the daemon loads, then runs the ``repro`` CLI unchanged; when the
CLI returns (after a SIGTERM drain) the daemon's spans are written to PATH.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: daemon.py --spans PATH <repro CLI arguments>",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import tracing as tr
    from repro import cli, zoo

    for name in ("get_water_model", "get_copper_model"):
        def profiled(*args, _load=getattr(zoo, name), **kwargs):
            model = _load(*args, **kwargs)
            model.session.profile = True
            return model

        setattr(zoo, name, profiled)
    tracer = tr.install_layers(tr.Tracer())
    tracer.enabled = True
    try:
        return cli.main(argv[2:])
    finally:
        tracer.enabled = False
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
