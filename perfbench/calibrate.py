"""Machine-speed probe: fixed work that depends on nothing in the program.

Started by worker.py beside a timed pass, never by hand.  Each line of
stdin asks for one run of the kernel; the answer is one line, its time in
seconds.  It exits at the end of stdin.

The worker asks from a timer that interrupts its pass every few tens of
milliseconds, and waits for the answer, so the two processes never run at
once and the kernel samples the machine's speed all through the pass.  On
a shared VM that speed moves by a third from one minute to the next;
run.py scales a pass's latencies by the (trimmed) mean kernel time it
sampled, so that the figures compare from run to run.  The kernel lives in its own process so that its
memory is not counted in the worker's peak RSS and its objects do not sit
in the worker's heap.
"""

import gc
import sys
import time
from array import array

TABLE_BITS = 20
# 8 MB, more than a core's private caches hold: the engine's memos are tens
# of megabytes, and contention for the shared cache slows it more than it
# slows code that fits in L2.
TABLE = array("q", range(1 << TABLE_BITS))


def kernel():
    """About 2.5 ms of tuple hashing, allocation and scattered reads."""
    table, mask = TABLE, (1 << TABLE_BITS) - 1
    d = {}
    for i in range(1200):
        d[(i, i * 7 % 1013, (i >> 3,))] = [i, i + 1]
    acc = 0
    for key, value in d.items():
        acc ^= value[0] + key[1]
    j = 1
    for _ in range(5000):
        j = (j * 1103515245 + 12345) & mask
        acc += table[j]
    return acc


def main():
    gc.disable()  # the kernel makes no cycles; collections would add noise
    kernel()  # first touch of the table and of fresh arenas
    clock = time.perf_counter
    for _ in sys.stdin:
        start = clock()
        kernel()
        print(repr(clock() - start), flush=True)


if __name__ == "__main__":
    main()
