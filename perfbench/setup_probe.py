"""Set-up cost of a fresh process: ``import cesaro`` plus one warm-up call
per verb the workload uses.

    python3 perfbench/setup_probe.py <workload> <src-dir>

Prints the elapsed seconds as its last line.  ``run.py`` starts this in a
fresh interpreter several times and reports the median as ``setup_s``; it
also calls :func:`warm_up` in its own process before timing anything.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time


def _quiet_cli(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def warm_up(workload: str, api, cli) -> None:
    """One cheap call per verb; raises if a warm-up call fails."""
    if workload == "continuation":
        api.zeta(0.5)
    elif workload == "discrete":
        api.zeta_discrete_ext(0.5)
        api.zeta_discrete_corrected(0)
    elif workload == "averaging":
        calls = [
            (["sum", "alt_ones", "--horizon", "1000"], 0),
            (["limit", "alt_ones", "--horizon", "1000"], 0),
            (["eta", "--s", "0.5", "--horizon", "1000"], 0),
            (["mellin", "--s", "0.5"], 0),
            (["integral", "--f", "exp", "--spec", "[]"], 0),
            (["table", "--max-delta", "1", "--max-r", "1"], 0),
            (["sweep", "eta", "--start", "0.5", "--stop", "0.5", "--count",
              "1", "--horizon", "1000"], 0),
        ]
        for argv, expected in calls:
            code = _quiet_cli(cli, argv)
            if code != expected:
                raise RuntimeError(f"warm-up {argv} exited {code}")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    workload, src = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import cesaro
    import cesaro.cli
    warm_up(workload, cesaro, cesaro.cli)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
