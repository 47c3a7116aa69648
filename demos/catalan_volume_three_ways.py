"""Compute the volume of one flow polytope family by three unrelated routes.

The polytope is the set of nonnegative flows on the complete graph K_{n+1}
with netflow (1, 1, 0, ..., 0, -2).  Its normalized volume can be obtained

  1. as a weak-composition sum weighted by Kostant partition function values,
  2. as the constant term of (x_{n-1} + x_n)^{C(n,2)} over the Vandermonde,
     evaluated through the paper's reduction to the CRY constant term,
     2^{C(n,2)-1} * morris_ct(n-2, 0, 2, 1): a different sweep from route 1,
  3. from the closed product 2^{C(n,2)-1} Cat(1) Cat(2) ... Cat(n-2),

and from the leading coefficient of the Ehrhart polynomial.  That polynomial
is decoded from two lattice-point Lidskii sums, so its column checks the
points formula against the volume formula.  Run this file directly to see
all four agree.
"""

from flowcat import (
    catalan_polytope_ct,
    catalan_polytope_volume,
    complete_graph,
    ehrhart_polynomial,
    lidskii_volume,
)


def main() -> None:
    print(f"{'n':>3} {'composition sum':>16} {'constant term':>14} "
          f"{'closed form':>12} {'ehrhart':>10}")
    for n in range(2, 7):
        G = complete_graph(n + 1)
        netflow = (1, 1) + (0,) * (n - 2) + (-2,)
        by_sum = lidskii_volume(G, netflow)
        by_ct = catalan_polytope_ct(n)
        by_product = catalan_polytope_volume(n)
        by_ehrhart = ehrhart_polynomial(G, netflow).normalized_volume
        print(f"{n:>3} {by_sum:>16} {by_ct:>14} {by_product:>12} {by_ehrhart:>10}")
        assert by_sum == by_ct == by_product == by_ehrhart


if __name__ == "__main__":
    main()
