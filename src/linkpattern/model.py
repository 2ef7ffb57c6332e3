"""CP latent-factor model: reconstruction, logistic link, likelihood, and
the one CP kernel.

The model approximates tensor entries by the triple inner product
``sum_d U[i,d] * V[j,d] * R[t,d]`` of sender, receiver and relation-type
factors, optionally squashed through a logistic link for prediction.

Every CP sum over a tensor's observed entries runs in one kernel,
:class:`ObservationGroups`, shared by the MAP fit, the Gibbs sampler and
:func:`log_likelihood`; it chooses between a masked-dense and a row form
once per tensor.  Bare coordinate arrays (:func:`reconstruct_entries`,
:func:`predict_entries`) take a blocked gather, which the kernel's row
form shares.  ``gibbs.predictive_scores`` takes the gather too, or from
``GRID_SHARE`` of the N x N x T cells up, the grid form, which scores every
cell and reads the coordinates from the grid.  Both reduce each
``U_i o V_j`` against ``R_t`` with the same ``einsum`` kernel, so they are
bitwise equal and the choice changes no value.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import DimensionMismatchError
from .tensor import RelationalTensor, _checked


@dataclass(frozen=True)
class ModelConfig:
    """Model shape: factorization rank and link choice.

    Frozen, so the checks hold for the instance's life;
    ``dataclasses.replace`` makes a checked copy with fields changed.
    """

    rank: int
    use_logistic: bool = True

    def __post_init__(self):
        _check_count("rank", self.rank, 1)


def _check_count(name, value, minimum, error=ValueError):
    """Raise ``error`` unless config field ``name`` is an integer of at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def _checked_factors(U, V, R, alpha, lead: int = 0):
    """U, V, R and alpha as float64 arrays, checked as one draw (``lead``
    0) or as a stack of draws along a leading axis (``lead`` 1).

    One draw is N x D matrices U and V, a T x D matrix R and a scalar
    alpha; a stack of S draws is (S, N, D), (S, N, D), (S, T, D) and (S,).
    Raises DimensionMismatchError for arrays whose dimensions or shapes
    disagree, and ValueError for an empty stack, a noise precision that is
    not positive, or an entry that is not finite.
    """
    U, V, R, alpha = (np.asarray(x, dtype=np.float64) for x in (U, V, R, alpha))
    if lead and not alpha.size:
        raise ValueError("a sample set needs at least one draw")
    if not (U.ndim == V.ndim == R.ndim == 2 + lead and U.shape == V.shape
            and U.shape[-1] == R.shape[-1] and U.shape[:lead] == R.shape[:lead] == alpha.shape):
        raise DimensionMismatchError(f"inconsistent factor shapes: U {U.shape}, V {V.shape}, "
                                     f"R {R.shape}, alpha {alpha.shape}")
    if not 0 < alpha.min() < np.inf:  # NaN fails too
        raise ValueError(f"noise precision must be positive and finite, got {alpha.min()}")
    if not (np.isfinite(U).all() and np.isfinite(V).all() and np.isfinite(R).all()):
        raise ValueError("factor entries must be finite")
    return U, V, R, alpha


@dataclass
class LatentFactors:
    """Complete model state: factor matrices plus noise precision.

    U and V are N x D (sender / receiver factors), R is T x D
    (relation-type factors), alpha is the Gaussian noise precision.
    """

    U: np.ndarray
    V: np.ndarray
    R: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        self.U, self.V, self.R, alpha = _checked_factors(self.U, self.V, self.R, self.alpha)
        self.alpha = float(alpha)

    @property
    def n_objects(self) -> int:
        return self.U.shape[0]

    @property
    def n_relations(self) -> int:
        return self.R.shape[0]

    @property
    def rank(self) -> int:
        return self.U.shape[1]


def logistic(x):
    """Numerically stable logistic function; works on scalars and arrays.

    Branch-free: with ``e = exp(min(x, -x))``, i.e. ``exp(-|x|)``, the
    result is ``max(x >= 0, e) / (1 + e)``.  For x >= 0 (and -0.0) that is
    ``1 / (1 + exp(-x))``, since e <= 1; for x < 0 it is
    ``exp(x) / (1 + exp(x))``: the two stable branches, bit for bit, so
    large |x| saturates to 0 or 1 without overflow.  ``min(x, -x)`` rather
    than ``-abs(x)`` keeps the sign bit of a NaN input.
    """
    arr = np.asarray(x, dtype=np.float64)
    # Ufuncs return a scalar for 0-d input, which out= cannot take.
    vals = np.atleast_1d(arr)
    e = np.negative(vals)
    np.minimum(vals, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(vals >= 0, e)
    e += 1.0
    out /= e
    return out if arr.ndim else float(out[0])


# The CP kernel (ObservationGroups) takes the masked-dense form when the
# tensor has at most this many cells per observed entry, and the row form
# otherwise: the reconstruction, the Gibbs normal equations and with them
# the MAP gradient.
# Whole fit_map times, 10 logistic iterations on random tensors (distinct
# uniform cells, 30% ones), coordinate / dense, medians of 5 (one BLAS
# thread, 2-vCPU Xeon VM, numpy 2.4), with the gradient from the Gibbs
# right-hand sides:
#   cells per entry           1.25   2.5    5     10    20    40    80
#   N=50,  T=5,  D=5          3.80   3.75  2.97  3.05  3.45  3.43
#   N=104, T=26, D=11        10.03   7.04  4.34  3.38  2.61  1.15  0.77
#   N=200, T=10, D=10                4.82  4.72  3.02  2.22  1.59  1.30
#   N=300, T=20, D=11                            3.07  1.54  1.02  0.58
# The forms break even near 40 cells per entry at N=300 and between 40 and
# 80 at the kinship data's size; at N=50 and N=200 the dense form wins at
# every density tried.  The threshold is the break-even of the earlier
# einsum/bincount gradient (5 to 18 cells per entry); raising it would
# trade memory, T N^2 cells per slice stack, for speed.  The Gibbs Grams'
# masked form is slower than a per-row loop just under the threshold at
# N >= 100, and faster from about 3 cells per entry down and on the battery
# data.  U/V/R
# block times in ms on partially observed fibers, row loop / masked form
# with K = T (medians, one BLAS thread, same VM):
#   shape            cells per entry   row loop         masked
#   50 x 50 x 5      6.3 (battery)     0.33/0.37/0.11   0.14/0.12/0.09
#   104 x 104 x 26   2.5               6.8/6.7/5.0      5.2/4.6/5.3
#   300 x 300 x 20   3.3               30/32/41         28/34/29
#   200 x 200 x 10   5.0               5.5/5.8/3.7      5.0/5.7/4.1
#   104 x 104 x 26   8.3               2.8/2.8/1.9      3.9/3.6/3.8
#   300 x 300 x 20   9.1               12/14/11         21/33/25
#   500 x 500 x 5    9.1               9.2/8.4/8.5      20/35/23
# One threshold for both keeps one form decision.
DENSE_CELLS_PER_ENTRY = 10

# Coordinates per block of the gathered CP sums (bare coordinates, below
# GRID_SHARE in predictive_scores, and the kernel's row form) and of the
# grid form's reads.
# Whole predictive_scores times in ms of the gather over all N x N x T
# coordinates, identity link, medians of 15 interleaved runs (one BLAS
# thread, 2-vCPU Xeon VM, numpy 2.4):
#   block                          1024  2048  4096  8192  16384  whole
#   N=104, T=26, D=11,   4 draws     70    57    53    61     65    109
#   N=50,  T=5,  D=5,  250 draws    150   118   106    92    102     95
#   N=300, T=20, D=11,   4 draws    403   339   314   352    392    824
# The three (block, D) buffers and the block's totals stay in cache near
# 4096 rows; whole-array gathers ("whole") spill at the larger sizes.
_SCORE_BLOCK = 4096

# predictive_scores takes the grid form (_grid_blocks) when the coordinates
# number at least this share of the N x N x T cells, and the blocked gather
# otherwise.  The two forms are bitwise equal, so the switch changes no value.
# Gather / grid times in ms at each share of the cells, distinct random
# coordinates in no order, identity link, medians of 9 to 15 interleaved
# runs (one BLAS thread, 2-vCPU Xeon VM, numpy 2.4); the sums and link over
# 4 or 250 draws, and over one draw, as a MAP file is scored:
#   share                0.2        0.3        0.4        0.5       0.75        1.0
#   104x104x26, D=11, 4  7.6/12.5  11.6/12.8  14.9/12.7  19.6/13.3  31.0/14.1  40.9/15.2
#   50x50x5, D=5, 250   15.2/35.4  22.3/37.4  30.4/35.3  35.8/36.3  93.3/70.3   127/62.8
#   300x300x20, D=11, 4   70/137    100/140    137/132    144/126    184/102    293/139
#   104x104x26, D=11, 1  2.9/5.6    4.0/5.6    5.4/6.3    6.9/6.8   10.1/8.1   10.0/6.1
#   300x300x20, D=11, 1 13.5/24.6  20.5/29.0  26.7/31.4  34.7/34.9  49.4/42.3  96.8/72.4
# At a tenth of the cells the gather is 3 to 4 times faster on every shape.
# The forms break even between 0.3 and 0.5 of the cells; from 0.5 up the
# grid form ties or wins on every shape.  At 0.5 its (N, N, T) total is
# twice the result, which keeps the peak below 4 times the result.
GRID_SHARE = 0.5

# Cells per block of the grid form, counted as rows x N x max(D, T): its
# (rows, N, D) products and (rows, N, T) sums, and the link's temporaries.
# Whole grid-form predictive_scores times in ms over all N x N x T
# coordinates, identity link, medians of 7 runs (same VM):
#   block                        4096   8192  16384  32768  65536
#   N=104, T=26, D=11,   4 draws   20     15     14     14     13
#   N=50,  T=5,  D=5,  250 draws   47     45     35     38     42
#   N=300, T=20, D=11,   4 draws  155    160    150    151    141
# Larger blocks gain little and add to the peak at the switch.
_GRID_BLOCK = 16384


def _inner(a, b) -> float:
    """<a, b> of two 1-D arrays, summed without BLAS.

    OpenBLAS splits a long ``dot`` across its threads, so its rounding
    depends on the thread count; ``einsum`` sums in one fixed order.
    """
    return float(np.einsum("i,i->", a, b))


def _khatri_rao(B, C):
    """Column-wise Khatri-Rao product: row ``j * len(C) + t`` is ``B[j] * C[t]``."""
    return (B[:, None, :] * C[None, :, :]).reshape(-1, B.shape[1])


def _coordinates(ii, jj, tt, n_objects: int, n_relations: int):
    """The coordinate arrays as contiguous int64 arrays, checked as the tensor
    constructor checks them.

    Raises ValueError for a coordinate that is not an exact integer, and
    IndexError for one outside [0, N) or [0, T), which numpy indexing would
    wrap or a flat index would read as another cell.
    """
    return [np.ascontiguousarray(_checked(values, bound, what))
            for values, bound, what in ((ii, n_objects, "object indices"),
                                        (jj, n_objects, "object indices"),
                                        (tt, n_relations, "relation indices"))]


def _gather_blocks(ii, jj, tt, rank: int):
    """The coordinates in blocks of ``_SCORE_BLOCK``: yields each block's
    slice and its arguments for :func:`_gathered_sums`.

    The arguments are the block's coordinates and three (block, D) buffers,
    views of one allocation that every block reuses, so the gathers add
    O(block D) memory whatever the coordinate count.
    """
    buffers = np.empty((3, min(ii.size, _SCORE_BLOCK), rank))
    for start in range(0, ii.size, _SCORE_BLOCK):
        rows = slice(start, start + _SCORE_BLOCK)
        i = ii[rows]
        yield rows, (i, jj[rows], tt[rows], *buffers[:, :i.size])


def _gathered_sums(A, B, C, i, j, t, a, b, c) -> np.ndarray:
    """sum_d A[i,d] B[j,d] C[t,d] over one block, its rows gathered into a, b, c.

    Each sum is ``(A_i o B_j) . C_t`` with the products and their order of
    whole gathered (E, D) arrays, so a value depends neither on its block
    nor on the other coordinates.  The coordinates must lie within the
    factors' rows: the callers range-check them.
    """
    # "clip" never clips in range; it spares the copy that "raise" makes.
    np.take(A, i, axis=0, out=a, mode="clip")
    np.take(B, j, axis=0, out=b, mode="clip")
    np.take(C, t, axis=0, out=c, mode="clip")
    a *= b
    return np.einsum("nd,nd->n", a, c)


def _cp_sums(A, B, C, ii, jj, tt) -> np.ndarray:
    """sum_d A[i,d] B[j,d] C[t,d] at every coordinate, block by block."""
    out = np.empty(ii.size)
    for rows, block in _gather_blocks(ii, jj, tt, A.shape[1]):
        out[rows] = _gathered_sums(A, B, C, *block)
    return out


def _takes_grid(count: int, n_objects: int, n_relations: int) -> bool:
    """Whether ``count`` bare coordinates take the grid form: at least one,
    and at least ``GRID_SHARE`` of the N x N x T cells."""
    return count > 0 and count >= GRID_SHARE * n_objects * n_objects * n_relations


def _grid_blocks(A, B, C):
    """sum_d A[i,d] B[j,d] C[t,d] over the whole (N, N, T) grid, a block of
    sender rows i at a time.

    Yields each block's slice of rows and its (rows, N, T) sums, views of one
    reused buffer.  The block's pair products A_i o B_j fill one reused
    (rows, N, D) buffer, which one ``einsum`` reduces against a C-contiguous
    C: the kernel and the order of each sum are those of
    :func:`_gathered_sums`, so every cell is bitwise the gathered
    ``(A_i o B_j) . C_t``, and no BLAS product is involved.
    """
    n, rank = A.shape
    C = np.ascontiguousarray(C)
    step = max(1, _GRID_BLOCK // (B.shape[0] * max(rank, C.shape[0])))
    products = np.empty((min(n, step), B.shape[0], rank))
    sums = np.empty((min(n, step), B.shape[0], C.shape[0]))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        a = A[rows]
        block = products[:len(a)]
        np.multiply(a[:, None, :], B, out=block)
        yield rows, np.einsum("ijd,td->ijt", block, C, out=sums[:len(a)])


def _grid_cells(grid: np.ndarray, ii, jj, tt) -> np.ndarray:
    """The (N, N, T) ``grid`` read at the coordinates, ``_SCORE_BLOCK`` at a time
    so that their flat indices add O(block) memory.

    Blocked flat ``take`` is faster than ``grid[ii, jj, tt]``, which yields
    the same values: ms on the 104 x 104 x 26 grid, medians of 31
    interleaved runs (same VM), blocked / direct: every cell in order
    1.6 / 2.3, every cell in no order 2.8 / 5.4, half the cells in no order
    1.8 / 3.6.
    """
    n, _, t = grid.shape
    flat = grid.ravel()
    out = np.empty(ii.size)
    for start in range(0, ii.size, _SCORE_BLOCK):
        rows = slice(start, start + _SCORE_BLOCK)
        # "clip" never clips in range; the callers range-check the coordinates.
        flat.take((ii[rows] * n + jj[rows]) * t + tt[rows], out=out[rows], mode="clip")
    return out


class ObservationGroups:
    """The one CP kernel: a tensor's observed entries, arranged once per
    chain or MAP fit for every CP sum over them.

    The sums are the reconstruction (:meth:`reconstruct`, :meth:`residual`),
    behind the MAP loss, the Gibbs noise precision and log-likelihoods and
    :func:`log_likelihood`; the Gibbs normal equations (:meth:`normal_terms`);
    and the right-hand sides with per-entry weights in place of the labels
    (:meth:`right_hand_sides`), which are the MAP gradient.  ``dense`` is the
    one choice between their two forms:

    * **masked**, when the tensor has at most ``DENSE_CELLS_PER_ENTRY`` cells
      per observed entry.  The reconstruction is one
      ``A @ khatri_rao(B, C).T`` over a whole unfolding, read at the ``flat``
      indices ``(i N + j) T + t`` (Kolda & Bader 2009).  ``slices`` holds the
      zero-filled (T, N, N) labels Y_t and ``masks`` a (K, N, N) stack of
      0/1 masks: K = 1, the fiber mask m_ij, when every observed fiber holds
      all T entries (m_ijt = m_ij for every t), and K = T, the entry masks
      m_ijt, otherwise.  Each Gram is a sum over k of Hadamard products of
      small Grams (Kolda & Bader 2009, §3.4), and each right-hand side one
      batched product ``Y_t @ V`` or ``Y_t^T @ U`` contracted with the third
      factor; weights fill slices of their own.  Every BLAS product sums
      over N into D columns, or over D alone in the reconstruction, which
      rounds alike under any thread count;
    * **row**, for sparser tensors (``masks`` is None).  The reconstruction
      is the blocked gather that bare coordinates take
      (:func:`reconstruct_entries`), and the entries are sorted once by each
      axis, so that each row's Gram and right-hand side are summed over its
      contiguous segment.  Summing over the masks costs K N^2 D^2 whatever
      the entry count, which sparse tensors do not repay.

    The arrays beyond the tensor's own are built on first use: a value-only
    MAP objective builds no more than ``flat``.  The factors passed in must
    fit the tensor; the callers check them.  ``tensor`` is the tensor the
    groups were built over, so that a sampler can refuse groups passed
    with another one.
    """

    def __init__(self, tensor: RelationalTensor):
        self.tensor = tensor
        self.ii, self.jj, self.tt, self.y = tensor.entry_arrays()
        self.n, self.t = tensor.n_objects, tensor.n_relations
        self.dense = self.n * self.n * self.t <= DENSE_CELLS_PER_ENTRY * self.y.size

    @cached_property
    def flat(self) -> np.ndarray:
        """Each entry's flat index into an (N, N, T) array (masked form)."""
        return (self.ii * self.n + self.jj) * self.t + self.tt

    @cached_property
    def cells(self) -> np.ndarray:
        """Each entry's flat index into a (T, N, N) stack (masked form)."""
        return (self.tt * self.n + self.ii) * self.n + self.jj

    @cached_property
    def masks(self) -> Optional[np.ndarray]:
        """The (K, N, N) 0/1 mask stack of the masked form; None in the row form."""
        if not self.dense:
            return None
        masks = self._slices(1.0)
        if (masks == masks[:1]).all():  # every observed fiber is whole
            masks = masks[:1].copy()
        return masks

    @cached_property
    def slices(self) -> np.ndarray:
        """The zero-filled (T, N, N) label slices Y_t of the masked form."""
        return self._slices(self.y)

    @cached_property
    def by_axis(self):
        """The entries sorted once by each axis, for the row form."""
        ii, jj, tt, y = self.ii, self.jj, self.tt, self.y
        return (_AxisGroups(ii, jj, tt, y, self.n), _AxisGroups(jj, ii, tt, y, self.n),
                _AxisGroups(tt, ii, jj, y, self.t))

    def _slices(self, values) -> np.ndarray:
        """Per-entry ``values`` in zero-filled (T, N, N) slices."""
        slices = np.zeros((self.t, self.n, self.n))
        slices.ravel()[self.cells] = values
        return slices

    def reconstruct(self, A, B, C) -> np.ndarray:
        """sum_d A[i,d] B[j,d] C[t,d] at every observed entry, in entry order."""
        if self.dense:
            # The BLAS product sums only D terms per cell; sums that short
            # round alike under one and two OpenBLAS threads, unlike an
            # N*T-term sum over an unfolding (tests/test_blas_threads.py).
            return (A @ _khatri_rao(B, C).T).take(self.flat)
        return _cp_sums(A, B, C, self.ii, self.jj, self.tt)

    def residual(self, factors: LatentFactors) -> np.ndarray:
        """Observed values minus the identity-link reconstruction."""
        return self.y - self.reconstruct(factors.U, factors.V, factors.R)

    def normal_terms(self, mode: int, factors: LatentFactors):
        """``(gram, xty)`` of factor ``mode`` (0: U, 1: V, 2: R) given the others.

        Row k's least-squares terms over its observed entries, with design
        vectors the products of the other two factors' rows: ``gram`` is a
        (rows, D, D) stack, or one (1, D, D) Gram shared by every row of R
        under a fiber mask, and ``xty`` is (rows, D).
        """
        U, V, R = factors.U, factors.V, factors.R
        if not self.dense:
            left, right = ((V, R), (U, R), (U, V))[mode]
            return self.by_axis[mode].normal_terms(left, right)
        if mode == 2:  # sum_i (U_i U_i^T) o (sum_j m_ijk V_j V_j^T), per mask k
            gram = np.einsum("ia,ib,kiab->kab", U, U, _masked_grams(self.masks, V))
        else:
            # row i of U: sum_k (sum_j m_ijk V_j V_j^T) o RR_k, with RR = R^T R
            # under the fiber mask and RR_t = R_t R_t^T under the entry masks;
            # V likewise over i, with U
            other, masks = (V, self.masks) if mode == 0 else (U, self.masks.transpose(0, 2, 1))
            rr = (np.einsum("td,te->de", R, R)[None] if len(masks) == 1
                  else R[:, :, None] * R[:, None, :])
            gram = np.einsum("kiab,kab->iab", _masked_grams(masks, other), rr)
        return gram, _slice_rhs(self.slices, mode, U, V, R)

    def right_hand_sides(self, w: np.ndarray, U, V, R):
        """The right-hand sides of all three factors with the per-entry
        weights ``w`` (in entry order) in place of the labels.

        Row i of U gets ``sum w_ijt V_j o R_t`` over its observed entries, and
        V and R likewise: the weighted MTTKRPs (matricized tensor times
        Khatri-Rao products) of a CP gradient (Acar et al. 2011; Kolda &
        Bader 2009, §3.4).  The weights take the labels' path: zero-filled
        (T, N, N) slices in the masked form, the per-row loop without its
        Grams in the row form.
        """
        if not self.dense:
            return [axis.normal_terms(left, right, weights=w)[1] for axis, (left, right)
                    in zip(self.by_axis, ((V, R), (U, R), (U, V)))]
        slices = self._slices(w)
        return [_slice_rhs(slices, mode, U, V, R) for mode in range(3)]


def _slice_rhs(slices: np.ndarray, mode: int, U, V, R) -> np.ndarray:
    """Factor ``mode``'s right-hand side from (T, N, N) slices S_t of entry values.

    U gets ``sum_t R_t o (S_t V)_i``, V gets ``sum_t R_t o (S_t^T U)_j`` and R
    gets ``sum_i U_i o (S_t V)_i``: one batched product over the T slices,
    whose BLAS sums run over N into D columns, and one ``einsum``.
    """
    if mode == 1:
        return np.einsum("tid,td->id", np.matmul(slices.transpose(0, 2, 1), U), R)
    sv = np.matmul(slices, V)
    return np.einsum("tid,td->id", sv, R) if mode == 0 else np.einsum("tid,id->td", sv, U)


def _masked_grams(masks: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``sum_j masks[k, i, j] M_j M_j^T`` for every k and i: a (K, N, D, D) stack.

    K D products (N, N) @ (N, D), one per mask and column a of
    ``M_j M_j^T``.  As one (N, N) @ (N, D^2) product the sums rounded
    differently under one and two OpenBLAS threads
    (tests/test_blas_threads.py).
    """
    return np.matmul(masks[:, None], M.T[:, :, None] * M).transpose(0, 2, 1, 3)


class _AxisGroups:
    def __init__(self, axis, other1, other2, yy, n_groups):
        self.order = np.argsort(axis, kind="stable")
        self.n_groups = n_groups
        self.o1 = other1[self.order]
        self.o2 = other2[self.order]
        self.y = yy[self.order]
        counts = np.bincount(axis, minlength=n_groups)
        self.offsets = np.concatenate([[0], np.cumsum(counts)])

    def normal_terms(self, left: np.ndarray, right: np.ndarray, weights=None):
        """Per-row Grams and right-hand sides of the design ``left[o1] * right[o2]``;
        rows with no observations get zeros.  Given per-entry ``weights`` (in
        entry order), the right-hand sides sum them in place of the labels,
        and no Grams are built (``gram`` is None)."""
        n, d = self.n_groups, left.shape[1]
        y = self.y if weights is None else weights[self.order]
        gram = np.zeros((n, d, d)) if weights is None else None
        xty = np.zeros((n, d))
        bounds = self.offsets.tolist()
        for k in range(n):
            start, stop = bounds[k], bounds[k + 1]
            if start == stop:
                continue
            design = (left.take(self.o1[start:stop], axis=0)
                      * right.take(self.o2[start:stop], axis=0))
            if gram is not None:
                gram[k] = np.dot(design.T, design)
            xty[k] = np.dot(y[start:stop], design)
        return gram, xty


def reconstruct_entries(factors: LatentFactors, ii, jj, tt) -> np.ndarray:
    """Triple inner products sum_d U[i,d] V[j,d] R[t,d] over coordinate arrays.

    The coordinates take the blocked gather, so a value depends only on its
    own coordinate.  ``gibbs.predictive_scores``' grid form is bitwise equal
    to it, so a MAP score is the one-draw posterior mean in either form.
    Raises IndexError for a coordinate outside [0, N) or [0, T), and
    ValueError for one that is not an exact integer.
    """
    ii, jj, tt = _coordinates(ii, jj, tt, factors.n_objects, factors.n_relations)
    return _cp_sums(factors.U, factors.V, factors.R, ii, jj, tt)


def predict_entries(factors: LatentFactors, ii, jj, tt, config: ModelConfig) -> np.ndarray:
    """Model means under the configured link over coordinate arrays."""
    s = reconstruct_entries(factors, ii, jj, tt)
    return logistic(s) if config.use_logistic else s


def _check_tensor(factors: LatentFactors, tensor: RelationalTensor) -> None:
    if tensor.n_objects != factors.n_objects or tensor.n_relations != factors.n_relations:
        raise DimensionMismatchError(
            f"tensor {tensor.n_objects}x{tensor.n_objects}x{tensor.n_relations} does not match "
            f"factors N={factors.n_objects}, T={factors.n_relations}")


def log_likelihood(factors: LatentFactors, tensor: RelationalTensor,
                   config: ModelConfig) -> float:
    """Gaussian log-likelihood of the observed entries.

    Each observed entry contributes log N(y | m, 1/alpha) with m the model
    mean under the configured link; unobserved entries contribute nothing.
    """
    _check_tensor(factors, tensor)
    groups = ObservationGroups(tensor)
    s = groups.reconstruct(factors.U, factors.V, factors.R)
    return _gaussian_log_likelihood(groups.y - (logistic(s) if config.use_logistic else s),
                                    factors.alpha)


def _gaussian_log_likelihood(resid: np.ndarray, alpha: float) -> float:
    """Sum of log N(r | 0, 1/alpha) over the residuals r; 0.0 for none."""
    if resid.size == 0:
        return 0.0
    sse = _inner(resid, resid)
    return 0.5 * resid.size * (np.log(alpha) - np.log(2.0 * np.pi)) - 0.5 * alpha * sse
