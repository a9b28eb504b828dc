"""Calls of every recirc function during one recirc command.

    python tools/call_counts.py <recirc argv...>

e.g. `python tools/call_counts.py simulate --config preset:four_pumps
--quiet`. Runs `recirc.cli.main(argv)` in this process under
`sys.setprofile`, then prints one row per function of the recirc package
that ran: its call count and its name, module.qualname, most called first
and ties by name. Only the calling thread is profiled, and a generator
counts each resumption as a call. Exits with the command's exit code.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import recirc  # noqa: E402
from recirc.cli import main as recirc_main  # noqa: E402

PACKAGE = Path(recirc.__file__).parent


def count_calls(argv):
    """(exit code, Counter {name: calls}) of recirc's functions over one
    `recirc.cli.main(argv)`."""
    codes = Counter()

    def profile(frame, event, arg):
        if event == "call":
            codes[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        status = recirc_main(argv)
    finally:
        sys.setprofile(None)
    calls = Counter()
    for code, n in codes.items():
        path = Path(code.co_filename)
        if path.is_relative_to(PACKAGE):
            module = ".".join(("recirc", *path.relative_to(PACKAGE).with_suffix("").parts))
            calls[f"{module}.{code.co_qualname}"] += n
    return status, calls


def main(argv=None):
    status, calls = count_calls(sys.argv[1:] if argv is None else argv)
    print(f"{'calls':>9}  function")
    for name, n in sorted(calls.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n:>9}  {name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
