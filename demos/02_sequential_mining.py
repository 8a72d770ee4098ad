#!/usr/bin/env python3
# Mine frequent itemsets sequentially on a synthetic database and watch
# how the threshold shapes the result.

from distmine import generate_synthetic, sequential_apriori, threshold

# 400 transactions, 20 items, about 4 items per basket. Item popularity is
# rank-biased, so low item ids show up in many baskets.
db = generate_synthetic(400, 20, 4, seed=11)
print(f"database: {db.size} transactions, {db.universe} items")
print("first five baskets:", db.transactions[:5])

for minsup in ("0.5", "0.3", "0.15"):
    result = sequential_apriori(db, minsup)
    thr = threshold(minsup, db.size)
    by_len = {}
    for itemset in result.frequent:
        by_len[len(itemset)] = by_len.get(len(itemset), 0) + 1
    print(f"\nminsup {minsup} (count >= {thr}): {len(result.frequent)} itemsets {by_len}")
    # the five most frequent itemsets of size >= 2
    pairs_up = [(x, n) for x, n in result.frequent.items() if len(x) >= 2]
    for itemset, count in sorted(pairs_up, key=lambda e: -e[1])[:5]:
        print(f"   {itemset} appears in {count} baskets")
