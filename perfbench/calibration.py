"""Scale wall times to a reference machine speed.

The speed of a shared VM changes by up to about 2x over minutes as other
tenants come and go. Two runs of the same code can then differ by more than
any useful bound. `reference_task` is a fixed piece of work that shares no
code with cohphase: a Python integer loop plus a small numpy complex
exponential and dot product, the two kinds of work the workloads do. run.py
times it just before and just after each op. It multiplies the wall time in
between by REFERENCE_S over the median task time nearby (`speed_factors`).
The result is the time the same work would take on a machine where the task
takes REFERENCE_S.

Set-up is a fresh interpreter importing compiled extensions, and its speed
does not follow that in-process task. Each set-up interpreter is therefore
paired with a reference interpreter spawned right after it, which runs
IMPORT_TASK, and its wall time is scaled by REFERENCE_IMPORT_S over that
interpreter's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds `reference_task` takes by definition of the reference machine,
#: about its time on an unloaded core of a shared 2-vCPU VM.
REFERENCE_S = 0.0025

#: Seconds from spawning a fresh interpreter to the end of IMPORT_TASK on the
#: reference machine.
REFERENCE_IMPORT_S = 0.11

#: The set-up reference: numpy's import, in a fresh interpreter, with no
#: cohphase code.  It prints time.perf_counter() last.
IMPORT_TASK = "import numpy; import time; print(time.perf_counter())"

_POINTS = np.linspace(0.0, 1.0, 20_000)


def reference_task() -> float:
    """Wall seconds of the fixed reference work."""
    start = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i % 7
    for _ in range(2):
        wave = np.exp(-3j * _POINTS)
        np.vdot(wave, wave)
    return time.perf_counter() - start


def speed_factors(tasks: list[tuple[float, float]], radius: int) -> list[float]:
    """Factors taking each timed stretch's wall time to reference time.

    tasks[k] holds the task times just before and just after stretch k.  One
    task time can be off by 3x (an interrupt, or caches cold after a child
    process), so stretch k uses the median task time of stretches k - radius
    to k + radius.
    """
    return [
        REFERENCE_S / statistics.median(t for pair in tasks[max(0, k - radius):k + radius + 1] for t in pair)
        for k in range(len(tasks))
    ]
