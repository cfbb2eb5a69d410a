"""Tour of the congestion families and their structural classifiers.

Each service model maps a class's usage Q and capacity C to the performance
penalty K(Q, C) its users perceive.  Whether offering several smaller
classes can ever beat one big class hinges on two structural questions,
answered here for every family:

* scale-down behaviour: is K(aQ, aC) below or above K(Q, C) for a < 1?
* monotone preference: do larger classes always carry larger (or always
  smaller) marginal congestion slopes dK/dQ?
"""

from pmplab import congestion as cg

MODELS = [
    cg.utilization(),
    cg.latency(),
    cg.general_latency(0.5),
    cg.general_latency(2.0),
    cg.loss(2),
    cg.outage(0.5),
    cg.utilization_default(0.1),
]


def main():
    print("=== sample levels at C = 1 ===")
    for model in MODELS:
        lo = model.min_usage()
        qs = [lo + (0.9 - lo) * f for f in (0.2, 0.5, 0.8)]
        levels = ", ".join(f"K({q:.2f})={model.evaluate(q, 1.0):.4f}" for q in qs)
        print(f"{model.describe():32s} {levels}")

    print("\n=== scale-down classification ===")
    for model in MODELS:
        res = cg.classify_scaling(model)
        extra = ""
        if res.witness_down:
            q, c, a = res.witness_down
            extra = f"  e.g. K({q:.2f},{c:.2f}) > K at scale {a:.1f}"
        elif res.witness_up:
            q, c, a = res.witness_up
            extra = f"  e.g. K({q:.2f},{c:.2f}) < K at scale {a:.1f}"
        print(f"{model.describe():32s} {res.verdict:24s}{extra}")

    print("\n=== monotone preference on capacities (0.3, 0.7) ===")
    caps = (0.3, 0.7)
    for model in MODELS:
        rep = cg.global_monotone(model, caps)
        line = rep.verdict
        if rep.verdict == "Violated":
            wit = "; ".join(f"{tuple(round(q, 3) for q in prof)}:{case}"
                            for prof, case in rep.witnesses)
            line += f"  ({wit})"
            restricted = cg.global_monotone(model, caps, cg.c2_profile_filter(model, caps))
            line += f"; restricted to equilibrium-feasible profiles: {restricted.verdict}"
        print(f"{model.describe():32s} {line}")

    print("\nThe queueing-delay family prefers multiplexing (pooled capacity");
    print("serves the same load with less delay), the utilization family is")
    print("scale-free, and a per-class default consumption tilts the scales")
    print("towards partitioning because each split class deducts its own.")


if __name__ == "__main__":
    main()
