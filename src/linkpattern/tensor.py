"""Partially observed binary relational tensors.

A :class:`RelationalTensor` holds the observations of an N x N x T binary
tensor together with the implicit indicator mask: a key that was never
observed reports ``None``, never a value.  The length-T vector of relation
values between one ordered object pair (a tube fiber) is the unit of
prediction throughout the package.

Tensors are immutable after construction; every "mutation" is a
constructor returning a new value, so instances are safe to share across
workers.
"""

from typing import Iterable, Optional, Sequence

import numpy as np

from .exceptions import DataConflictError

# An observed-or-missing relation vector for one ordered pair: entries are
# 0, 1 or None (missing).
LinkPattern = tuple
# Ordered object pair (i, j).  Directed: (i, j) and (j, i) are distinct.
FiberKey = tuple


class RelationalTensor:
    """Sparse N x N x T binary tensor with an explicit observed mask.

    Storage is a coordinate dict plus a per-pair fiber index.  The model
    kernels read the cached :meth:`entry_arrays`; for a tensor with few
    cells per observed entry (the paper's datasets are nearly fully
    observed) they evaluate on a masked-dense N x N x T form built from
    those arrays (``model._Entries``), and on the coordinates otherwise.
    """

    __slots__ = ("n_objects", "n_relations", "_values", "_fiber_index", "_arrays")

    def __init__(self, n_objects: int, n_relations: int, values: dict):
        if n_objects < 1 or n_relations < 1:
            raise ValueError("tensor dimensions must be positive")
        self.n_objects = int(n_objects)
        self.n_relations = int(n_relations)
        self._values = values
        self._fiber_index = {}
        for (i, j, t) in values:
            self._fiber_index.setdefault((i, j), set()).add(t)
        self._arrays = None

    @classmethod
    def build(cls, n_objects: int, n_relations: int,
              triples: Iterable[Sequence[int]]) -> "RelationalTensor":
        """Assemble a tensor from (i, j, t, value) triples.

        Duplicate triples with the same value are deduplicated silently;
        duplicates that disagree raise :class:`DataConflictError`.
        """
        values: dict = {}
        for i, j, t, v in triples:
            i, j, t, v = int(i), int(j), int(t), int(v)
            if not (0 <= i < n_objects and 0 <= j < n_objects):
                raise IndexError(f"object index out of range: ({i}, {j}) with N={n_objects}")
            if not (0 <= t < n_relations):
                raise IndexError(f"relation index out of range: {t} with T={n_relations}")
            if v not in (0, 1):
                raise ValueError(f"relation value must be 0 or 1, got {v}")
            key = (i, j, t)
            old = values.get(key)
            if old is None:
                values[key] = v
            elif old != v:
                raise DataConflictError(f"conflicting values for entry {key}: {old} vs {v}")
        return cls(n_objects, n_relations, values)

    @property
    def observed_count(self) -> int:
        return len(self._values)

    def _check_pair(self, i: int, j: int) -> None:
        if not (0 <= i < self.n_objects and 0 <= j < self.n_objects):
            raise IndexError(f"object index out of range: ({i}, {j}) with N={self.n_objects}")

    def _check_relation(self, t: int) -> None:
        if not (0 <= t < self.n_relations):
            raise IndexError(f"relation index out of range: {t} with T={self.n_relations}")

    def value_at(self, i: int, j: int, t: int) -> Optional[int]:
        """Observed value at (i, j, t), or None when the entry is missing."""
        self._check_pair(i, j)
        self._check_relation(t)
        return self._values.get((i, j, t))

    def fiber(self, key: FiberKey) -> LinkPattern:
        """Length-T link pattern for the ordered pair ``key``."""
        i, j = key
        self._check_pair(i, j)
        return tuple(self._values.get((i, j, t)) for t in range(self.n_relations))

    def slice(self, t: int) -> "TensorSlice":
        """Sparse N x N view of relation ``t`` with the same mask semantics."""
        self._check_relation(t)
        cells = {(i, j): v for (i, j, tt), v in self._values.items() if tt == t}
        return TensorSlice(self.n_objects, t, cells)

    def fiber_keys(self) -> list:
        """Ordered pairs with at least one observed relation, sorted."""
        return sorted(self._fiber_index)

    def observed_keys(self) -> list:
        """All observed (i, j, t) keys, sorted."""
        return sorted(self._values)

    def hide_fibers(self, keys) -> tuple:
        """Move every observed entry of the named fibers into a test tensor.

        Returns ``(train, test)``: a disjoint partition of the observations
        whose union is this tensor.
        """
        hidden = set()
        for key in keys:
            i, j = key
            self._check_pair(i, j)
            hidden.add((i, j))
        train_values, test_values = {}, {}
        for (i, j, t), v in self._values.items():
            if (i, j) in hidden:
                test_values[(i, j, t)] = v
            else:
                train_values[(i, j, t)] = v
        return (RelationalTensor(self.n_objects, self.n_relations, train_values),
                RelationalTensor(self.n_objects, self.n_relations, test_values))

    def merged_with(self, other: "RelationalTensor") -> "RelationalTensor":
        """Union of two observation sets over the same index space."""
        if (other.n_objects, other.n_relations) != (self.n_objects, self.n_relations):
            raise ValueError("cannot merge tensors of different shape")
        values = dict(self._values)
        for key, v in other._values.items():
            old = values.get(key)
            if old is None:
                values[key] = v
            elif old != v:
                raise DataConflictError(f"conflicting values for entry {key}: {old} vs {v}")
        return RelationalTensor(self.n_objects, self.n_relations, values)

    def without_relation(self, t: int) -> "RelationalTensor":
        """Copy with every observation of relation ``t`` dropped."""
        self._check_relation(t)
        values = {k: v for k, v in self._values.items() if k[2] != t}
        return RelationalTensor(self.n_objects, self.n_relations, values)

    def entry_arrays(self):
        """Coordinate arrays (ii, jj, tt, yy) in sorted key order.

        The value array is float64; index arrays are int64.  Cached, since
        tensors are immutable.
        """
        if self._arrays is None:
            keys = self.observed_keys()
            if keys:
                coords = np.asarray(keys, dtype=np.int64)
                ii, jj, tt = coords[:, 0], coords[:, 1], coords[:, 2]
            else:
                ii = jj = tt = np.empty(0, dtype=np.int64)
            yy = np.asarray([self._values[k] for k in keys], dtype=np.float64)
            self._arrays = (ii, jj, tt, yy)
        return self._arrays

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationalTensor):
            return NotImplemented
        return (self.n_objects == other.n_objects
                and self.n_relations == other.n_relations
                and self._values == other._values)

    __hash__ = None  # unhashable: holds a dict

    def __repr__(self) -> str:
        return (f"RelationalTensor(n_objects={self.n_objects}, "
                f"n_relations={self.n_relations}, observed={self.observed_count})")


class TensorSlice:
    """One relation type of a tensor, viewed as a sparse masked matrix."""

    __slots__ = ("n_objects", "relation", "_cells")

    def __init__(self, n_objects: int, relation: int, cells: dict):
        self.n_objects = n_objects
        self.relation = relation
        self._cells = cells

    @property
    def observed_count(self) -> int:
        return len(self._cells)

    def value_at(self, i: int, j: int) -> Optional[int]:
        if not (0 <= i < self.n_objects and 0 <= j < self.n_objects):
            raise IndexError(f"object index out of range: ({i}, {j}) with N={self.n_objects}")
        return self._cells.get((i, j))

    def __getitem__(self, key) -> Optional[int]:
        i, j = key
        return self.value_at(i, j)

    def to_tensor(self) -> RelationalTensor:
        """The slice as a standalone T=1 tensor (relation index becomes 0)."""
        values = {(i, j, 0): v for (i, j), v in self._cells.items()}
        return RelationalTensor(self.n_objects, 1, values)

    def __repr__(self) -> str:
        return (f"TensorSlice(n_objects={self.n_objects}, relation={self.relation}, "
                f"observed={self.observed_count})")
