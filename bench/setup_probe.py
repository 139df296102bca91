"""Time one cold set-up in a fresh process: import kcurv, run the workload's
cheap set-up subcommands, load its form.  Prints the seconds taken.

Usage: python3 setup_probe.py '{"src": ..., "steps": [[argv...], ...], "form": path}'
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import kcurv
    from kcurv import cli

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in spec["steps"]:
            rc = cli.main(argv)
            if rc != 0:
                sys.exit(f"set-up step {argv[0]!r} exited with {rc}")
    kcurv.load_form(spec["form"])
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
