"""Walk the face structure of a small flow polytope.

Faces of the flow polytope of K_{n+1} with netflow (a_1, ..., a_n, -sum a_i)
are (0,1)-fillings of a shifted staircase; the number of 1s minus the number
of nonzero rows is the face dimension.  Dimension-0 fillings decode into
decreasing forests whose leaves lie in the support of a.  This script prints
the f-vector of one example and the forest behind every vertex.
"""

from flowcat import f_vector, tableau_to_forest, vertex_tableaux


def main() -> None:
    a = (1, 0, 1)
    print(f"netflow prefix a = {a}")
    fv = f_vector(a)
    for dim, count in enumerate(fv):
        print(f"  faces of dimension {dim}: {count}")
    print(f"  euler check: {sum((-1) ** d * c for d, c in enumerate(fv))}")

    print("vertices as decreasing forests (parent, 0 = root, - = absent):")
    for rows in vertex_tableaux(a):
        parents = tableau_to_forest(rows)
        cells = " / ".join("".join(map(str, row)) for row in rows)
        shown = " ".join("-" if p is None else str(p) for p in parents)
        roots = [v for v, p in enumerate(parents, start=1) if p == 0]
        print(f"  [{cells}]  ->  parents: {shown}  roots: {roots}")


if __name__ == "__main__":
    main()
