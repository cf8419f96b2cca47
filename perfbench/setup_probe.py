"""Time one cold set-up of a workload in a fresh interpreter: importing
lexgp and building the run's inputs. Prints the seconds it took.

    python3 perfbench/setup_probe.py <workload> <seed> <seconds> <workdir>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env, workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, seconds, workdir = argv
    env.import_lexgp()
    workloads.prepare(workloads.WORKLOADS[name], int(seed), float(seconds), Path(workdir))
    print(f"{time.perf_counter() - START!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
