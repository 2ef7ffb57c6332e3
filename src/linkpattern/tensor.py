"""Partially observed binary relational tensors.

A :class:`RelationalTensor` holds the observations of an N x N x T binary
tensor together with the implicit indicator mask: an entry is observed
exactly when its coordinates are stored.  The length-T vector of relation
values between one ordered object pair (a tube fiber) is the unit of
prediction throughout the package.

Storage is the coordinate layout of Kolda & Bader 2009: four read-only
arrays ``(ii, jj, tt, yy)``, int64 coordinates and float64 0/1 values of
the observed entries, sorted by ``(i, j, t)`` without duplicates.  Every
tensor is made by one validating constructor, which checks every input and
stores only arrays of its own, so a tensor never aliases or freezes a
caller's array.  Input whose keys already increase strictly (a sorted file,
or any tensor's entries filtered or unpickled) skips only the sort.  Every
"mutation" returns a new tensor, so instances are safe to share across
workers.
"""

from typing import Iterable, Sequence

import numpy as np

from .exceptions import DataConflictError


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64.  Raises ValueError unless every entry is an exact
    integer."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and np.isfinite(arr).all() and (np.trunc(arr) == arr).all():
        arr = arr.astype(np.int64)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"{what} must be exact integers")
    return arr.astype(np.int64, copy=False)


def _checked(values, bound: int, what: str, error=IndexError) -> np.ndarray:
    """``values`` as int64 exact integers (:func:`_integers`).  Raises
    ``error`` unless every entry lies in [0, bound)."""
    arr = _integers(values, what)
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise error(f"{what} must lie in [0, {bound})")
    return arr


def _rows(items, width: int, what: str) -> np.ndarray:
    """An array, or an iterable of equal-length tuples, as a (count, width) array."""
    rows = np.asarray(items if isinstance(items, np.ndarray) else list(items))
    if rows.size == 0:
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{what} must be rows of {width} fields")
    return rows


class RelationalTensor:
    """Sparse N x N x T binary tensor with an explicit observed mask.

    The constructor is the one validation: it raises IndexError for a
    coordinate out of range, ValueError for a dimension or field that is not
    an exact integer or a value outside {0, 1}, and :class:`DataConflictError` for
    duplicates that disagree; agreeing duplicates are merged.  The stored
    arrays are the tensor's own, read-only copies.
    """

    __slots__ = ("n_objects", "n_relations", "_entries")

    def __init__(self, n_objects: int, n_relations: int, ii, jj, tt, yy):
        self.n_objects, self.n_relations = n, T = _integers(
            (n_objects, n_relations), "tensor dimensions").tolist()
        if n < 1 or T < 1:
            raise ValueError("tensor dimensions must be positive")
        ii, jj = (_checked(a, n, "object indices") for a in (ii, jj))
        tt = _checked(tt, T, "relation indices")
        yy = _checked(yy, 2, "relation values", ValueError)
        if ii.ndim != 1 or not ii.shape == jj.shape == tt.shape == yy.shape:
            raise ValueError("coordinate and value arrays must be 1-D of equal length")
        key = (ii * n + jj) * T + tt
        if (key[1:] > key[:-1]).all():
            # sorted without repeats: no sort, but the arrays may be the
            # caller's (the float64 values are a new array anyway)
            ii, jj, tt = ii.copy(), jj.copy(), tt.copy()
        else:
            # out of order or repeated: sort, then merge agreeing duplicates
            order = np.argsort(key, kind="stable")
            ii, jj, tt, yy, key = ii[order], jj[order], tt[order], yy[order], key[order]
            first = np.diff(key, prepend=-1) != 0
            clash = ~first[1:] & (yy[1:] != yy[:-1])
            if clash.any():
                k = np.argmax(clash)
                raise DataConflictError(f"conflicting values for entry ({ii[k]}, {jj[k]}, "
                                        f"{tt[k]}): {yy[k]} vs {yy[k + 1]}")
            ii, jj, tt, yy = ii[first], jj[first], tt[first], yy[first]
        self._entries = (ii, jj, tt, yy.astype(np.float64))
        for arr in self._entries:
            arr.flags.writeable = False

    @classmethod
    def build(cls, n_objects: int, n_relations: int,
              triples: Iterable[Sequence[int]]) -> "RelationalTensor":
        """Assemble a tensor from (i, j, t, value) triples, checked as above."""
        # contiguous columns: the checks run slower on strided views of the rows
        columns = np.ascontiguousarray(_rows(triples, 4, "triples").T)
        return cls(n_objects, n_relations, *columns)

    @property
    def observed_count(self) -> int:
        return self._entries[3].size

    def _check_relation(self, t: int) -> None:
        if not (0 <= t < self.n_relations):
            raise IndexError(f"relation index out of range: {t} with T={self.n_relations}")

    def _select(self, keep: np.ndarray) -> "RelationalTensor":
        return RelationalTensor(self.n_objects, self.n_relations,
                                *(a[keep] for a in self._entries))

    def slice(self, t: int) -> "TensorSlice":
        """Relation ``t`` as a T=1 tensor (relation index 0), same mask semantics."""
        self._check_relation(t)
        keep = self._entries[2] == t
        ii, jj, _tt, yy = (a[keep] for a in self._entries)
        return TensorSlice(self.n_objects, 1, ii, jj, np.zeros_like(ii), yy)

    def fiber_keys(self) -> np.ndarray:
        """Ordered pairs (i, j) with at least one observed relation: a sorted
        (F, 2) int64 array.  Directed: (i, j) and (j, i) are distinct."""
        # entries are sorted by (i, j, t), so each fiber is one run of keys
        pairs = self._entries[0] * self.n_objects + self._entries[1]
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        return np.stack(np.divmod(pairs, self.n_objects), axis=1)

    def observed_keys(self) -> list:
        """All observed (i, j, t) keys, sorted."""
        return list(zip(*(a.tolist() for a in self._entries[:3])))

    def hide_fibers(self, keys) -> tuple:
        """Move every observed entry of the named fibers into a test tensor.

        Returns ``(train, test)``: a disjoint partition of the observations
        whose union is this tensor.
        """
        n = self.n_objects
        pairs = _checked(_rows(keys, 2, "fiber keys"), n, "fiber keys")
        hidden = np.isin(self._entries[0] * n + self._entries[1], pairs[:, 0] * n + pairs[:, 1])
        return self._select(~hidden), self._select(hidden)

    def merged_with(self, other: "RelationalTensor") -> "RelationalTensor":
        """Union of two observation sets over the same index space."""
        if (other.n_objects, other.n_relations) != (self.n_objects, self.n_relations):
            raise ValueError("cannot merge tensors of different shape")
        return RelationalTensor(self.n_objects, self.n_relations,
                                *map(np.concatenate, zip(self._entries, other._entries)))

    def without_relation(self, t: int) -> "RelationalTensor":
        """Copy with every observation of relation ``t`` dropped."""
        self._check_relation(t)
        return self._select(self._entries[2] != t)

    def entry_arrays(self):
        """The stored read-only arrays (ii, jj, tt, yy), in sorted key order."""
        return self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationalTensor):
            return NotImplemented
        return ((self.n_objects, self.n_relations) == (other.n_objects, other.n_relations)
                and all(map(np.array_equal, self._entries, other._entries)))

    __hash__ = None  # unhashable: equality compares the stored arrays

    def __reduce__(self):
        # unpickled copies pass the constructor too, so they are read-only again
        return RelationalTensor, (self.n_objects, self.n_relations) + self._entries

    def __repr__(self) -> str:
        return (f"RelationalTensor(n_objects={self.n_objects}, "
                f"n_relations={self.n_relations}, observed={self.observed_count})")


class TensorSlice(RelationalTensor):
    """One relation type of a tensor: the T=1 tensor of its entries."""

    __slots__ = ()

    def to_tensor(self) -> RelationalTensor:
        # only perfbench/run.py calls this; a slice is already its tensor
        return self
