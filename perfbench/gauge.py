"""Fixed pure-Python work that the benchmark times between operations to
gauge the machine's speed at that moment.

    python3 perfbench/gauge.py

It imports nothing from growth, so no change to the program moves its
time; only the machine does.  Its work resembles the program's: standard
tableaux of the 3 x 4 box built as chains of partition tuples, and a dict
keyed by partitions.
"""

import sys

REPEATS = 20


def chains(outer):
    """Standard tableaux of shape outer, as chains of partitions."""
    out = []

    def build(chain):
        cur = chain[-1]
        if cur == outer:
            out.append(tuple(chain))
            return
        for row in range(len(outer)):
            c = cur[row]
            if c < outer[row] and (row == 0 or cur[row - 1] > c):
                nxt = list(cur)
                nxt[row] += 1
                build(chain + [tuple(nxt)])

    build([(0,) * len(outer)])
    return out


def main():
    weight = {}
    for _ in range(REPEATS):
        tableaux = chains((4, 4, 4))
        for chain in tableaux:
            for p in chain:
                weight[p] = weight.get(p, 0) + sum(p)
    # 462 tableaux of the 3 x 4 box
    return 0 if len(tableaux) == 462 else 1


if __name__ == "__main__":
    sys.exit(main())
