"""Walk the named example complexes end to end and print the certificates.

Usage: python scripts/certificate_demo.py
"""

from extenders import (
    build_complex,
    cm_extender,
    depth,
    extender_for_complex,
    f_vector,
    find_partitioning,
    find_shelling,
    format_face,
    h_decomposition,
    h_vector,
    nonpure_extender_for_complex,
)

EXAMPLES = {
    "bow-tie": [[1, 2, 3], [3, 4, 5]],
    "two disjoint edges": [[1, 2], [3, 4]],
    "K4 plus two disjoint edges": [
        [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [5, 6], [7, 8]],
    "triangle boundary": [[1, 2], [1, 3], [2, 3]],
}


def show_partition(label, partition):
    print(f"  {label}:")
    for bottom, top in partition:
        print(f"    [{format_face(bottom)}, {format_face(top)}]")


def main():
    for name, facets in EXAMPLES.items():
        c = build_complex(facets)
        print(f"== {name} ==")
        print(f"  f-vector {f_vector(c)}, h-vector {h_vector(c)}")
        witness = find_partitioning(c)
        if witness is None:
            print("  not partitionable (exhaustive search)")
        else:
            show_partition("partitioning", witness)
        order = find_shelling(c)
        print("  shellable" if order else "  not shellable", end="")
        if order:
            print(":", " ".join(format_face(f) for f in order), end="")
        print()
        print(f"  depth {depth(c)}")
        outcome = cm_extender(c)
        if hasattr(outcome, "witness_face"):
            print(f"  no Cohen-Macaulay extender; witness "
                  f"({format_face(outcome.witness_face)}, {outcome.witness_degree})")
        else:
            print(f"  Cohen-Macaulay extender with "
                  f"{len(outcome.extender.facets)} facets")
        if c.is_pure:
            res = extender_for_complex(c)
        else:
            res = nonpure_extender_for_complex(c)
        h_big, h_rel, diff = h_decomposition(res)
        print(f"  partition extender: {len(res.extender.faces)} faces, "
              f"{len(res.relative.faces)} relative members")
        print(f"  h identity: {h_big} - {h_rel} = {diff}")
        print()


if __name__ == "__main__":
    main()
