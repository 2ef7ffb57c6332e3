#!/usr/bin/env python3
"""Convert raw multi-relational dumps into the triple text format.

The published relational datasets (kinship terms, international relations,
social-network crawls) circulate in several ad-hoc layouts; none of them
ships in this package's format, so this shim documents the two layouts we
accept and how they map onto the ``N T`` / ``i j t v`` triple files:

edgelist
    One observed positive link per line: ``i j t`` (0-based indices
    inside N and T; any other line is an error naming its file and line).
    Everything absent is treated as unobserved by default; pass
    ``--closed-world`` to record every absent (i, j, t) cell as an
    observed 0 instead (the usual reading for fully-crawled adjacency
    data).

matrix
    One whitespace-separated dense N x N matrix file per relation, passed
    in relation order.  Cells must be 0, 1, or one of ``? - NaN NA`` for
    unobserved; any other cell is an error naming its file, row and column
    (0-based, row i and column j holding the cell (i, j)).

Both layouts accept ``--symmetrize`` (mirror (i, j) onto (j, i)) and
``--drop-self-pairs``.  The mapping of raw ids to 0-based indices is the
caller's responsibility; this shim does not guess at id schemes.
"""

import argparse
import sys

sys.path.insert(0, "src")  # allow running from a source checkout

from linkpattern.io import save_triples  # noqa: E402
from linkpattern.tensor import RelationalTensor  # noqa: E402

MISSING_TOKENS = {"?", "-", "nan", "na"}


def read_edgelist(paths, n_objects, n_relations, closed_world, symmetrize):
    links = set()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                body = line.strip()
                if not body or body.startswith("#"):
                    continue
                try:
                    i, j, t = (int(p) for p in body.split()[:3])
                except ValueError:
                    raise SystemExit(f"{path}: line {line_number}: expected integer "
                                     f"'i j t', got {body!r}") from None
                if not (0 <= i < n_objects and 0 <= j < n_objects and 0 <= t < n_relations):
                    raise SystemExit(f"{path}: line {line_number}: index out of range for "
                                     f"N={n_objects}, T={n_relations}: {body!r}")
                links.add((i, j, t))
    if symmetrize:
        # mirror before the closed world fills the gaps, so that a link
        # listed one way round does not meet an observed 0 the other way
        links |= {(j, i, t) for (i, j, t) in links}
    triples = [(i, j, t, 1) for (i, j, t) in sorted(links)]
    if closed_world:
        triples += [(i, j, t, 0)
                    for i in range(n_objects) for j in range(n_objects)
                    for t in range(n_relations) if (i, j, t) not in links]
    return triples


def read_matrices(paths, n_objects):
    triples = []
    for t, path in enumerate(paths):
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.split() for line in fh if line.strip()]
        if len(rows) != n_objects or any(len(r) != n_objects for r in rows):
            raise SystemExit(f"{path}: expected a {n_objects}x{n_objects} matrix")
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if cell.lower() in MISSING_TOKENS:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value not in (0.0, 1.0):
                    raise SystemExit(f"{path}: row {i}, column {j}: cell {cell!r} is not "
                                     f"0, 1 or a missing token")
                triples.append((i, j, t, int(value)))
    return triples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("edgelist", "matrix"), required=True)
    parser.add_argument("--n-objects", type=int, required=True)
    parser.add_argument("--n-relations", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--closed-world", action="store_true",
                        help="edgelist only: absent cells become observed 0s")
    parser.add_argument("--symmetrize", action="store_true")
    parser.add_argument("--drop-self-pairs", action="store_true")
    parser.add_argument("inputs", nargs="+",
                        help="edge list files, or one matrix file per relation")
    args = parser.parse_args(argv)

    if args.format == "edgelist":
        triples = read_edgelist(args.inputs, args.n_objects, args.n_relations,
                                args.closed_world, args.symmetrize)
    else:
        if len(args.inputs) != args.n_relations:
            raise SystemExit("matrix format expects one input file per relation")
        triples = read_matrices(args.inputs, args.n_objects)

    if args.drop_self_pairs:
        triples = [q for q in triples if q[0] != q[1]]
    if args.symmetrize:
        mirrored = {(j, i, t): v for (i, j, t, v) in triples}
        merged = {(i, j, t): v for (i, j, t, v) in triples}
        for key, v in mirrored.items():
            if merged.setdefault(key, v) != v:
                raise SystemExit(f"cannot symmetrize: conflicting values at {key}")
        triples = [(i, j, t, v) for (i, j, t), v in sorted(merged.items())]

    tensor = RelationalTensor.build(args.n_objects, args.n_relations, triples)
    save_triples(tensor, args.out)
    print(f"wrote {tensor} -> {args.out}")


if __name__ == "__main__":
    main()
