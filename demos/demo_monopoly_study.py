"""The monopoly study: when do two price classes beat one?

For each service model (V = 2, uniform types) this script compares one
merged class (C = 1) against two classes (C = 0.3, 0.7) whose economy
price is a fixed fraction a of the premium price, maximizing over the
premium price at each a.  It then demonstrates the constructive
improvement probe: starting from identical pricing, nudging the class
boundary in the direction chosen by the slope ordering raises welfare and
profit together whenever the model orders its marginal slopes
consistently.
"""

from pmplab import congestion as cg
from pmplab.equilibrium import MarketScenario
from pmplab.monopoly import (
    local_improvement_probe,
    maximize_free_prices,
    partition_comparison,
    ratio_sweep,
    viability_report,
)

A_GRID = (0.5, 0.75, 0.9, 1.0)


def main():
    for model in (cg.utilization(), cg.latency(), cg.loss(2), cg.outage(0.5)):
        sc = MarketScenario(2.0, (0.3, 0.7), model)
        curve = ratio_sweep(sc, A_GRID, "profit", grid=256)
        print(f"=== {model.describe()}")
        print(f"  single-class best profit {curve.baseline_single:.6f} "
              f"at p = {curve.baseline_argmax:.4f}")
        for pt in curve.points:
            mark = "+" if pt.best_value > curve.baseline_single + 1e-6 else " "
            print(f"  a={pt.ratio:.2f}: best {pt.best_value:.6f} "
                  f"at p1={pt.argmax_p1:.4f} {mark}")

    print("\n=== identical-price partition at p = 1 (V = 2, C = 1 -> 0.5/0.5) ===")
    for model in (cg.utilization(), cg.latency(), cg.utilization_default(0.1)):
        sc = MarketScenario(2.0, (1.0,), model)
        pc = partition_comparison(sc, 1.0, (0.5, 0.5))
        print(f"  {model.describe():28s} single (S={pc.single_welfare:.4f}, "
              f"pi={pc.single_profit:.4f})  split (S={pc.split_welfare:.4f}, "
              f"pi={pc.split_profit:.4f})")

    print("\n=== improvement probe, utilization C=(0.3, 0.7) ===")
    sc = MarketScenario(2.0, (0.3, 0.7), cg.utilization())
    for p in (0.9, 1.2):
        res = local_improvement_probe(sc, p, 1e-3)
        print(f"  p={p}: case {res.case}, direction {res.direction:+d}, "
              f"dS={res.d_welfare:+.3e}, dpi={res.d_profit:+.3e}")
    wrong = local_improvement_probe(sc, 0.9, 1e-3, direction=-1)
    print(f"  p=0.9 forced wrong direction: dS={wrong.d_welfare:+.3e}")

    prices, value, _ = maximize_free_prices(sc, "profit")
    print(f"\nfree two-class profit optimum: p = "
          f"({prices[0]:.4f}, {prices[1]:.4f}), value {value:.6f}")

    print("\n=== combined viability verdicts ===")
    for model in (cg.utilization(), cg.loss(2), cg.latency()):
        sc1 = MarketScenario(2.0, (1.0,), model)
        rep = viability_report(sc1, splits=((0.3, 0.7),), a_grid=(0.5, 0.9, 1.0))
        print(f"  {model.describe():16s} scaling {rep.scaling.verdict:24s} "
              f"-> {rep.verdict}")


if __name__ == "__main__":
    main()
