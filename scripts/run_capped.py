#!/usr/bin/env python3
"""Runs a command and fails when it is too slow or too big.

    scripts/run_capped.py <max-rss-MB> <max-wall-s> <command> [args...]

Prints the command's wall time and peak resident set and exits non-zero
when the command fails or either figure exceeds its ceiling. The CI
llm-smoke job holds the planner's time and memory with it.

The peak is the larger of two readings: the command's own high-water mark
(VmHWM in /proc/<pid>/status, polled while it runs) and the kernel's
ru_maxrss for the reaped child. The second cannot miss a late spike but
never reads below this wrapper's own size at fork (about 11 MB), so both
are printed.
"""
import resource
import subprocess
import sys
import time


def vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except (OSError, ValueError):
        pass
    return 0.0


def main(argv):
    if len(argv) < 4:
        sys.exit(__doc__)
    max_mb, max_s, command = float(argv[1]), float(argv[2]), argv[3:]
    start = time.monotonic()
    child = subprocess.Popen(command)
    polled_mb = 0.0
    while child.poll() is None:
        polled_mb = max(polled_mb, vm_hwm_mb(child.pid))
        time.sleep(0.01)
    wall = time.monotonic() - start
    code = child.returncode
    # Linux reports ru_maxrss in kilobytes.
    reaped_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(
        f"run_capped: wall {wall:.2f} s (ceiling {max_s:g} s), "
        f"peak RSS {polled_mb:.1f} MB polled / {reaped_mb:.1f} MB reaped "
        f"(ceiling {max_mb:g} MB), exit {code}",
        file=sys.stderr,
    )
    if code != 0:
        sys.exit(code if code > 0 else 1)
    if wall > max_s or max(polled_mb, reaped_mb) > max_mb:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
