#!/usr/bin/env python3
# Head-to-head: center-site protocol vs count-distribution on the same
# partitions. Same answers, different communication bills.

from distmine import (
    CountDistributionRun,
    ImprovedRun,
    PartitionSpec,
    generate_synthetic,
    partition,
)

db = generate_synthetic(5000, 60, 8, seed=23)
print(f"database: {db.size} transactions, {db.universe} items")

for n_sites in (2, 4, 8):
    parts = partition(db, PartitionSpec(n_sites=n_sites))
    improved = ImprovedRun(parts, "0.1")
    improved.run()
    cd = CountDistributionRun(parts, "0.1")
    cd.run()
    assert improved.result == cd.result  # identical answers, always

    print(f"\nn_sites={n_sites}  ({len(improved.result.frequent)} frequent itemsets)")
    print("  level | counted candidates |    messages     |      bytes")
    print("        | protocol  baseline | proto  baseline | proto  baseline")
    for mi, mc in zip(improved.metrics, cd.metrics):
        print(f"   {mi.k:>4} | {mi.candidates_generated:>8}  {mc.candidates_generated:>8}"
              f" | {mi.messages_sent:>5}  {mc.messages_sent:>8}"
              f" | {mi.payload_bytes:>5}  {mc.payload_bytes:>8}")
    total = lambda ms, attr: sum(getattr(m, attr) for m in ms)
    print(f"  total | {total(improved.metrics, 'candidates_generated'):>8}"
          f"  {total(cd.metrics, 'candidates_generated'):>8}"
          f" | {total(improved.metrics, 'messages_sent'):>5}"
          f"  {total(cd.metrics, 'messages_sent'):>8}"
          f" | {total(improved.metrics, 'payload_bytes'):>5}"
          f"  {total(cd.metrics, 'payload_bytes'):>8}")
