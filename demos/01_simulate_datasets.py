"""Write a two-campaign dataset pair and peek at the record stream.

Produces dataset1.jsonl / dataset2.jsonl / scenario.json in ./demo_out and
prints the per-sensor record counts plus the first few wire lines.
"""

from pathlib import Path

from indoor_fusion.records import read_records
from indoor_fusion.cli import main as cli

OUT = Path(__file__).resolve().parent / "demo_out"


def main():
    code = cli(["simulate", "--seed", "7", "--duration", "60",
                "--out", str(OUT)])
    assert code == 0

    tables = read_records(OUT / "dataset1.jsonl")
    print("\nrecords by sensor:")
    for sensor, table in sorted(tables.items()):
        print(f"  {sensor:5s} {len(table):6d}")

    print("\nfirst three wire lines:")
    with open(OUT / "dataset1.jsonl", "r", encoding="utf-8") as fh:
        for _ in range(3):
            line = fh.readline().rstrip()
            print(f"  {line[:100]}{'...' if len(line) > 100 else ''}")


if __name__ == "__main__":
    main()
