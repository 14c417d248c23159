"""Random search for a universal discretization point set.

Draw i.i.d. uniform node sets until one certifies for every v-element
subspace of the dictionary.  Failure is a value carrying the best attempt,
so sweeps can record it.

Run:  python3 demos/03_search_universal_points.py
"""

import usdlab as u

dictionary = u.Dictionary.exponential_band(-3, 3)   # 7 elements
coll = u.SubspaceCollection.all_subsets(dictionary, 2)
print(f"collection: all {coll.count()} two-element subspaces")

result = u.find_usd_points(coll, p=2, m=128, max_trials=20, rng_seed=1)
print(f"passed={result.passed} at draw {result.draw_index} "
      f"({result.trials_run} trial(s) run)")
print(f"window: [{min(result.certificate.min_ratios):.4f}, "
      f"{max(result.certificate.max_ratios):.4f}]")
print(f"reference node budget (constant unknown, logged for comparison): "
      f"{result.reference_budget:.1f} vs the m={result.points.size} that "
      "sufficed empirically")

# Too few nodes can never work: a 2-dimensional span always contains a
# function vanishing on one node.
hopeless = u.find_usd_points(coll, p=2, m=1, max_trials=5, rng_seed=1)
print(f"m=1: passed={hopeless.passed}, best worst-violation "
      f"{hopeless.certificate.worst_violation():.3f}")

# Away from p = 2 the sphere extremes are nonconvex, so the verifier runs
# a multistart projected gradient and flags the certificate as heuristic.
# At even p it also bounds every ratio rigorously: |f|^4 = |f^2|^2, and f^2
# lies in the span of the exponentials of the sumset.
xi = result.points
cert4 = u.check_usd(xi, coll, p=4, opts=u.RatioOptions(starts=16, seed=1))
print(f"p=4 heuristic recheck of the same nodes: passed={cert4.passed} "
      f"(method {cert4.method['kind']}, {cert4.method['starts']} starts)")
print(f"p=4 rigorous outer window [{min(cert4.outer_min_ratios):.3f}, "
      f"{max(cert4.outer_max_ratios):.3f}]: rigorous_pass={cert4.rigorous_pass}")
