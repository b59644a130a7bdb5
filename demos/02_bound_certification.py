# The sampling oracle certifies the closed-form loss numerically: over the
# committed 50-instance sweep the sampled mean entropy never exceeds the
# closed form beyond three standard errors. The certification is honest
# about its limits: one known off-distribution instance genuinely violates
# the bound, and the report says so instead of hiding it.
from seva import bound_gap_report, bound_sweep, mc_entropy, substream
from seva.oracle import random_instance
from seva.runner import format_bound_report

print("committed certification sweep (mc seed 10, 20k draws per instance):")
reports = bound_sweep(10, n_instances=50, n_samples=20_000)
for i in (0, 1, 2, 47, 48, 49):
    print(" ", format_bound_report(i, reports[i]))
n_ok = sum(r.satisfied for r in reports)
print(f"  ... {n_ok}/50 satisfied, worst slack "
      f"{min(r.gap + 3 * r.mc.stderr for r in reports):+.4f} nats")

print("\na genuine counterexample (instance 16 of sweep seed 13):")
gen = substream(13, "bounds", 16)
head, z, sigma = random_instance(gen)
rep = bound_gap_report(head, z, sigma, mc_entropy(head, z, sigma, 100_000, gen))
print(" ", format_bound_report(16, rep))
print(
    "  the ratio-of-expectations prediction underweights tail classes on\n"
    "  confident instances, so the sampled mean entropy can sit above the\n"
    "  closed form; certification is therefore per committed instance set,\n"
    "  and `seva verify-bounds` exits nonzero whenever a sweep violates."
)
