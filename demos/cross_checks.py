"""Trust, but verify: two independent ways to confirm every number.

The counting engine is exact, but exactness does not prove correctness.
This demo confronts it with an exhaustive tally of all 2^n strings, which
counts them by their prefix state, the longest prefix of the pattern that
ends them, with moves built from the pattern's bits alone (plain Python,
four counts here), and with a seeded Monte Carlo simulation of actual
coin-toss games.
"""

from coinwait import (
    exhaustive_tally,
    expected_waiting_time,
    occurrence_counts,
    parse_pattern,
    simulate,
)

p = parse_pattern("1101")
n = 18

tally = exhaustive_tally(p, n)
counts = occurrence_counts(p, n)
print(f"all {1 << n} strings of length {n} vs pattern {p}:")
print(f"  avoiding the pattern: {tally.avoiding_count}"
      f" (engine says {counts.sigma[n]})")
agree = all(
    tally.first_occurrence_counts[j] == counts.tau[j]
    for j in range(len(p), n + 1)
)
print(f"  first-completion counts agree at every toss: {agree}")
print(f"  partition check: {tally.classified_total()} == {1 << n}")
print()

print("simulated games, one million each, fixed seeds:")
for text in ["10", "11", "110", "10101"]:
    pat = parse_pattern(text)
    r = simulate(pat, 10**6, seed=7)
    exact = expected_waiting_time(pat)
    z = (r.sample_mean - exact) / r.sample_stderr
    print(f"  {text:6s} exact {exact:>3}  sample {r.sample_mean:8.4f}"
          f"  stderr {r.sample_stderr:.4f}  z {z:+.2f}"
          f"  longest game {r.max_game_length_seen}")

print()
print("Same seed, same result, bit for bit:")
a = simulate(parse_pattern("11"), 100_000, seed=42)
b = simulate(parse_pattern("11"), 100_000, seed=42)
print(f"  {a.sample_mean} == {b.sample_mean}: {a == b}")
