"""Fixed work that measures the host's current speed.

The benchmark runs this script through its launcher before every other timed
command and scales the run's times by this script's median time (see
``host_scale`` in ``run.py``). It does the same kinds of work as the CLI
commands, with no bitcipher code: interpreter start-up and ``import numpy``,
string splitting and dict counting in pure Python, and numpy matrix
products. On a shared host
whose speed drifts by tens of percent over minutes, its time moves with the
commands' times, while its own work never changes.
"""

import numpy as np

words = " ".join(f"w{i % 997}" for i in range(60_000)).split()
counts: dict = {}
for _ in range(2):
    for pair in zip(words, words[1:]):
        counts[pair] = counts.get(pair, 0) + 1
matrix = np.ones((300, 300))
for _ in range(10):
    matrix @ matrix
if len(counts) != 997:
    raise SystemExit(f"hostspeed: {len(counts)} pairs, expected 997")
