"""Sweep the Morris constant-term identity over a parameter box.

The iterated constant term of

    prod_i x_i^{-a} (1-x_i)^{-b}  prod_{i<j} (x_j - x_i)^{-m}

equals a product of Gamma factors at integer and half-integer arguments.
The engine evaluates the left side by exact configuration counting and the
right side with symbolic sqrt(pi) bookkeeping; odd m makes every individual
Gamma factor irrational while the product stays an integer.
"""

from flowcat import morris_closed, morris_ct


def main() -> None:
    print(f"{'n':>2} {'a':>2} {'b':>2} {'m':>2} {'constant term':>14} "
          f"{'gamma product':>14}")
    for n in (1, 2, 3):
        for a in (0, 1, 2):
            for b in (1, 2):
                for m in (1, 2):
                    left = morris_ct(n, a, b, m)
                    right = morris_closed(n, a, b, m)
                    print(f"{n:>2} {a:>2} {b:>2} {m:>2} {left:>14} {right:>14}")
                    assert left == right


if __name__ == "__main__":
    main()
