"""Start ``repro-serve daemon``, optionally with the per-layer collector.

Usage: ``python3 perfbench/serve_launcher.py [--collect DIR] <daemon args>``.
With ``--collect`` the wrappers are installed here, in the process that forks
the pool workers, before the daemon starts; the daemon's own totals are
written to ``DIR`` when it exits and each worker writes its own after every
solve.
"""

import sys

if __name__ == "__main__":
    argv = sys.argv[1:]
    collector = None
    if argv[:1] == ["--collect"]:
        from perfbench.collector import Collector

        collector = Collector(argv[1])
        collector.install()
        argv = argv[2:]
    from repro.serve.cli import daemon_main

    code = daemon_main(argv)
    if collector is not None:
        collector.flush()
    sys.exit(code)
