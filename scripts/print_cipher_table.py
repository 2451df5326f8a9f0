#!/usr/bin/env python3
"""Print the bit assignment table for a small cipher.

Useful for eyeballing the weight-class order: rank 1 starts at the first
basis vector, and each weight class fills in an order that keeps adjacent
ranks similar.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bitcipher import build_cipher, cipher_capacity


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bits", type=int, default=5)
    parser.add_argument("--rows", type=int, default=None,
                        help="rows to print (default: full capacity)")
    args = parser.parse_args()
    n = args.rows or cipher_capacity(args.bits)
    pair = build_cipher(n, args.bits)
    print(f"rank  bits{' ' * max(1, args.bits - 3)}plain vector")
    for rank in range(n):
        bits = "".join(str(b) for b in pair.bit_rows[rank])
        values = " ".join(f"{v:.3g}" for v in pair.plain_rows[rank])
        print(f"{rank + 1:>4}  {bits}  {values}")


if __name__ == "__main__":
    main()
