"""The generalized (S_sub, S_lin, S_sup)-Heterogeneous MPC model (Section 6).

The conclusion of the paper proposes parameterizing deployments by the
*total memory of each machine class*.  This example:

1. builds the paper's model as the special case general(s_sub=m, s_lin=n);
2. scales up to several near-linear machines and to a superlinear machine
   (n^{1+f}), showing how the MST algorithm's phase structure reacts.

Run:  python examples/general_model.py
"""

import random

from repro.core import heterogeneous_mst
from repro.graph import generators
from repro.graph.validation import verify_mst
from repro.mpc import ModelConfig


def main() -> None:
    rng = random.Random(4)
    n, m = 120, 2400
    graph = generators.random_connected_graph(n, m, rng).with_unique_weights(rng)

    print("deployment sweep (Section 6 general model), same MST input:\n")
    print("deployment                          steps  rounds  verified")
    deployments = [
        ("paper: (S_sub=m, S_lin=n)", ModelConfig.general(n=n, m=m, s_sub=m, s_lin=n)),
        ("3 near-linear machines", ModelConfig.general(n=n, m=m, s_sub=m, s_lin=3 * n)),
        ("superlinear: S_sup=n^1.5", ModelConfig.general(n=n, m=m, s_sub=m, s_sup=int(n**1.5))),
    ]
    for label, config in deployments:
        result = heterogeneous_mst(graph, config=config, rng=random.Random(1))
        print(
            f"{label:<35} {result.boruvka_steps:>5}  {result.rounds:>6}  "
            f"{verify_mst(graph, result.edges)}"
        )


if __name__ == "__main__":
    main()
