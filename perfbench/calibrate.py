"""Fixed reference work that measures how fast the host runs Python now.

    python3 perfbench/calibrate.py

Runs a deterministic pure-Python loop of the kinds of operation iasgl
spends its time on (small-int bitmask arithmetic, frozenset and dict
building and lookup, function calls) and prints a checksum. It imports
nothing from the program, so a change to the program cannot move it;
the runner measures its CPU time between passes to take the host's
speed, which drifts by tens of percent over minutes on a shared virtual
machine, out of the end-to-end metrics.
"""

from __future__ import annotations

ROUNDS = 60_000


def members(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(10) if mask >> i & 1)


def work(rounds: int) -> int:
    table: dict[frozenset[int], int] = {}
    acc = 0
    for r in range(rounds):
        mask = (r * 2654435761) & 0x3FF
        s = members(mask)
        shifted = frozenset(a + 1 for a in s if a < 9)
        acc ^= table.setdefault(s | shifted, len(table))
        acc += bin(mask & (mask >> 1)).count("1")
    return acc


if __name__ == "__main__":
    print(work(ROUNDS))
