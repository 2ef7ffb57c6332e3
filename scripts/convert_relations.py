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
from pathlib import Path

import numpy as np

# allow running from a source checkout, whatever the working directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linkpattern.exceptions import DataConflictError, TripleParseError  # noqa: E402
from linkpattern.io import _int_table, save_triples  # noqa: E402
from linkpattern.tensor import RelationalTensor  # noqa: E402

MISSING_TOKENS = {"?", "-", "nan", "na"}


def read_edgelist(paths, n_objects, n_relations, closed_world, symmetrize):
    tables = []
    for path in paths:
        try:
            tables.append(_int_table(path, (n_objects, n_objects, n_relations)))
        except TripleParseError as exc:
            raise SystemExit(f"{path}: {exc}") from None
    links = np.concatenate(tables)
    if not closed_world:
        return np.column_stack((links, np.ones(len(links), dtype=np.int64)))
    linked = np.zeros((n_objects, n_objects, n_relations), dtype=bool)
    linked[tuple(links.T)] = True
    if symmetrize:
        # mirror before the closed world fills the gaps, so that a link
        # listed one way round does not meet an observed 0 the other way
        linked |= linked.transpose(1, 0, 2)
    return np.column_stack((*np.indices(linked.shape).reshape(3, -1), linked.ravel()))


def read_matrices(paths, n_objects):
    triples = []
    for t, path in enumerate(paths):
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    return np.array(triples, dtype=np.int64).reshape(-1, 4)


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
        triples = triples[triples[:, 0] != triples[:, 1]]
    if args.symmetrize:
        triples = np.concatenate((triples, triples[:, [1, 0, 2, 3]]))
    try:
        tensor = RelationalTensor.build(args.n_objects, args.n_relations, triples)
    except DataConflictError as exc:
        raise SystemExit(f"cannot symmetrize: {exc}") from None
    save_triples(tensor, args.out)
    print(f"wrote {tensor} -> {args.out}")


if __name__ == "__main__":
    main()
