"""Wall times scaled to a reference CPU speed.

On a shared virtual machine the CPU's speed swings by up to 2x within
seconds, which swamps any change to the program.  Each timed stretch is
therefore bracketed by a calibration loop on the same CPU, and its wall
time is reported as ``wall * CAL_REF_S / calibration``: the time it
would take on a CPU that runs the loop in CAL_REF_S.  On a 2-vCPU VM
(Xeon, 2.0 GHz) this cut the spread (interquartile range over median)
of 30-s medians of run times from about 0.2 to 0.03-0.09.
"""

from __future__ import annotations

import subprocess
import sys
import time

CAL_LOOPS = 20000
CAL_REF_S = 0.15


def calibration_s() -> float:
    """Seconds a fixed mix of small-array numpy work takes right now.

    The loop is the benchmark's own code, shaped like a ``lieslam run``:
    scalar indexing of 3x3 and 3-vector arrays, small temporaries, reads
    scattered over a 2 MB table (like the trace arrays) and float
    formatting (like the CSV writer).  So it tracks how fast this CPU is
    at the moment for that kind of work, and does not change when the
    program does.  With the table and the formatting it tracked run
    times better (per-run spread 0.08 against 0.11) than without.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.standard_normal((256, 1024))
    rows = rng.integers(0, 256, CAL_LOOPS)
    r = np.eye(3)
    x = np.ones(3)
    acc = 0.0
    text = []
    start = time.perf_counter()
    for k in range(CAL_LOOPS):
        out = np.empty(3)
        for i in range(3):
            out[i] = r[i, 0] * x[0] + r[i, 1] * x[1] + r[i, 2] * x[2]
        r = r + 1e-12 * r
        acc += table[rows[k], k % 1024] + float(np.dot(out, x))
        if k % 8 == 0:
            text.append(",".join(repr(float(v)) for v in out))
    return time.perf_counter() - start


class Bracket:
    """Scale factors from calibration loops around consecutive stretches.

    Call ``factor()`` right after each timed stretch; the loop it runs is
    also the "before" loop of the next stretch.  The loops run in a helper
    process (on the caller's CPU, whose affinity it inherits), so the
    process that spawns the measured runs never loads numpy: the peak RSS
    that ``wait4`` reports for a child includes its parent's RSS at the
    time of the spawn.  Use as a context manager, which stops the helper.
    """

    def __init__(self):
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        self.last = self._calibrate()

    def _calibrate(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited with {self._helper.wait()}")
        return float(line)

    def factor(self) -> float:
        cal = self._calibrate()
        scale = 2.0 * CAL_REF_S / (self.last + cal)
        self.last = cal
        return scale

    def __enter__(self) -> "Bracket":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


if __name__ == "__main__":
    # helper mode: one calibration per input line, its time on stdout
    while sys.stdin.readline():
        print(calibration_s(), flush=True)
