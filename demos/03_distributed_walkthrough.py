#!/usr/bin/env python3
# Step through the center-site protocol on the supermarket example, two
# sites, minimum support 2/3: who reports what, who gets polled, and what
# every message costs.

from distmine import ImprovedRun, PartitionSpec, load_fimi, partition

NAMES = {1: "coffee", 2: "tea", 3: "milk", 4: "bread", 5: "butter"}

db = load_fimi("1 2 3\n1 2 4 5\n1 3 5\n")
parts = partition(db, PartitionSpec(n_sites=2))
for i, p in enumerate(parts):
    print(f"site {i} holds {p.size} transaction(s): {p.transactions}")

run = ImprovedRun(parts, "2/3")
result = run.run()


def pretty(itemset):
    return "{" + ",".join(NAMES.get(i, str(i)) for i in itemset) + "}"


print("\nmessage trace:")
level = 0
for rec in run.log.trace:
    if rec.k != level:
        level = rec.k
        print(f"-- level {level} --")
    print(f"  #{rec.seq:<2} {rec.src:>7} -> {rec.dst:<7} {rec.type:<13}"
          f" items={rec.items} bytes={rec.bytes}")

print("\nper-level metrics (messages stay within 4n = 8):")
for m in run.metrics:
    print(f"  level {m.k}: candidates={m.candidates_generated}"
          f" messages={m.messages_sent} bytes={m.payload_bytes}"
          f" reported={m.llk_total} frequent={m.lk_size}")

print("\nglobally frequent itemsets:")
for itemset, count in result.frequent.items():
    print(f"  {pretty(itemset):<25} support {count}")

print("\neach site scanned its raw partition exactly once:",
      [s.scan_counter.raw_scans for s in run.sites])
