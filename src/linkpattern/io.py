"""Dataset parsing, synthetic data generation, and artifact serialization.

Two on-disk formats are owned here:

* Triple text files: a ``N T`` header line followed by ``i j t v`` lines
  of whitespace-separated decimal integers, v in {0, 1}.  Blank lines and
  whole-line ``#`` comments are allowed; errors name the 1-based line.  A
  file without ``#`` is parsed straight from disk; comment lines cost a
  second pass over its line strings.

* Factor binaries: magic ``PLTF``, version byte 1, little-endian
  throughout.  Layout after the magic and version:

      kind        u8      0 = single factor set, 1 = sample set
      n_objects   u32
      n_relations u32
      rank        u32
      n_draws     u32     draws that follow (1 for kind 0)
      n_diag      u32     per-sweep log-likelihood count (0 for kind 0)
      diag        f64 * n_diag
      draws       n_draws records of: alpha f64, then U, V, R as
                  row-major f64 blocks of N*D, N*D, T*D entries

  A sample set's stacked (S, N, D), (S, N, D), (S, T, D) and (S,) arrays
  map onto the records directly: they are written in one call and read
  back as views of one payload array.  A single factor set is a one-draw
  stack.

Both formats round-trip losslessly (bitwise for float payloads).
"""

import math
import os
import struct
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import FormatError, TripleParseError
from .gibbs import HyperPriors, SampleSet, _sample_gaussian_stack, _sample_gaussian_wishart
from .model import LatentFactors, _check_count
from .rng import _check_seed, substream
from .tensor import RelationalTensor

MAGIC = b"PLTF"
FORMAT_VERSION = 1
_KIND_FACTORS = 0
_KIND_SAMPLES = 1


def _is_data(line: str) -> bool:
    """Whether a text line holds data: neither blank nor a whole-line comment."""
    return line.lstrip()[:1] not in ("", "#")


def _parse_table(source, bounds, skiprows: int = 0) -> np.ndarray:
    """``source``, a list of lines or a file path read from line
    ``skiprows + 1`` on, as an int64 (rows, len(bounds)) array.

    Blank lines parse as no rows.  Raises ValueError unless every other line
    holds ``len(bounds)`` decimal integers with field k in [0, bounds[k]).
    """
    width = len(bounds)
    try:
        with warnings.catch_warnings():
            # NumPy releases that still read "1.0" as an integer warn first
            warnings.simplefilter("error", DeprecationWarning)
            # blank lines alone parse as an empty table of the wrong width
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(source, dtype=np.int64, ndmin=2, comments=None,
                               skiprows=skiprows, encoding="utf-8-sig")
    except (ValueError, DeprecationWarning):
        table = None
    if table is not None and not table.size:
        return np.empty((0, width), dtype=np.int64)
    if table is None or table.shape[1] != width:
        raise ValueError(f"expected {width} integer fields")
    outside = ((table < 0) | (table >= np.asarray(bounds))).any(axis=0)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"field {k + 1} must lie in [0, {bounds[k]})")
    return table


def _table_of_lines(lines, bounds, first_line: int) -> np.ndarray:
    """The data lines among ``lines`` as an int64 (rows, len(bounds)) array.

    Blank lines and whole-line ``#`` comments are skipped.  Raises
    :class:`TripleParseError` naming the first bad line, counting ``lines[0]``
    as line ``first_line``.
    """
    data = [line for line in lines if _is_data(line)]
    try:
        return _parse_table(data, bounds)
    except ValueError as exc:
        error = exc
    # error path only: bisect for the first bad line (a run of lines parses
    # exactly when each of its lines does), then count its line number
    good, bad = 0, len(data)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_table(data[good:mid], bounds)
            good = mid
        except ValueError as exc:
            bad, error = mid, exc
    number = [n for n, line in enumerate(lines, start=first_line) if _is_data(line)][good]
    raise TripleParseError(f"{error}, got {data[good].strip()!r}", number)


def _int_table(path, bounds, first_line: int = 1) -> np.ndarray:
    """The data lines of a text file from line ``first_line`` on, as an int64
    (rows, len(bounds)) array.

    Blank lines and whole-line ``#`` comments are skipped; every other line
    holds ``len(bounds)`` whitespace-separated decimal integers, field k in
    [0, bounds[k]).  Raises :class:`TripleParseError` naming the first bad
    line.  Without a ``#`` in those lines the file is parsed straight from
    disk; only comments and errors split it into line strings, a second pass.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        for _ in range(first_line - 1):
            fh.readline()
        rest = fh.read()
    if "#" not in rest:
        try:
            return _parse_table(path, bounds, skiprows=first_line - 1)
        except ValueError:
            pass  # the line strings below name the bad line
    # text mode reads every line ending as "\n"
    return _table_of_lines(rest.split("\n"), bounds, first_line)


def load_triples(path) -> RelationalTensor:
    """Parse a triple text file into a tensor.

    The header is the first data line; the triples after it are read by
    :func:`_int_table`, straight from disk when no ``#`` follows the header.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = next(((number, line) for number, line in enumerate(fh, start=1)
                       if _is_data(line)), None)
    if header is None:
        raise TripleParseError("no header line found")
    number, line = header
    n_objects, n_relations = _table_of_lines([line], (np.inf, np.inf), number)[0].tolist()
    if n_objects < 1 or n_relations < 1:
        raise TripleParseError("header dimensions must be positive", number)
    triples = _int_table(path, (n_objects, n_objects, n_relations, 2), first_line=number + 1)
    return RelationalTensor.build(n_objects, n_relations, triples)


def save_triples(tensor: RelationalTensor, path) -> None:
    """Write a tensor as a triple text file (sorted keys, LF endings)."""
    ii, jj, tt, yy = tensor.entry_arrays()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{tensor.n_objects} {tensor.n_relations}\n")
        fh.writelines(f"{i} {j} {t} {y}\n" for i, j, t, y in
                      zip(ii.tolist(), jj.tolist(), tt.tolist(), yy.astype(np.int64).tolist()))


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated factor file while reading {what}")
    return data


def save_factors(obj, path) -> None:
    """Serialize a LatentFactors or SampleSet to the binary factor format.

    A LatentFactors is written as a one-draw stack.  The header, the
    log-likelihoods and the records of all draws go out in one write each.
    A SampleSet was checked when it was built, so every draw fits the header.
    """
    if not isinstance(obj, (LatentFactors, SampleSet)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    kind, samples = ((_KIND_SAMPLES, obj) if isinstance(obj, SampleSet)
                     else (_KIND_FACTORS, SampleSet.of([obj])))
    n_draws, n, d = samples.U.shape
    stacks = (samples.alpha, samples.U, samples.V, samples.R)
    records = np.concatenate([m.reshape(n_draws, -1) for m in stacks], axis=1, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<BBIIIII", FORMAT_VERSION, kind, n, samples.R.shape[1], d,
                                     n_draws, len(samples.log_likelihoods)))
        fh.write(np.asarray(samples.log_likelihoods, dtype="<f8"))
        fh.write(records)


def load_factors(path):
    """Load a factor binary; returns LatentFactors or SampleSet per its kind.

    After the header and size checks the whole payload is read into one
    float64 array.  A sample set's stacks are views of it, checked once as
    the set is built; no per-draw object is made.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version, kind = struct.unpack("<BB", _read_exact(fh, 2, "version"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        if kind not in (_KIND_FACTORS, _KIND_SAMPLES):
            raise FormatError(f"unknown payload kind {kind}")
        n, T, d, n_draws, n_diag = struct.unpack("<IIIII", _read_exact(fh, 20, "header"))
        if min(n, T, d) < 1:
            raise FormatError(f"factor file declares empty factors: N={n}, T={T}, D={d}")
        if n_draws < 1:
            raise FormatError("factor file holds no draws")
        if kind == _KIND_FACTORS and (n_draws, n_diag) != (1, 0):
            raise FormatError(f"single factor file declares {n_draws} draws and "
                              f"{n_diag} diagnostics, expected 1 and 0")
        payload = 8 * n_diag + n_draws * 8 * (1 + (2 * n + T) * d)
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload > remaining:
            raise FormatError(f"truncated factor file: header declares {payload} payload "
                              f"bytes, {remaining} remain")
        if payload < remaining:
            raise FormatError("trailing bytes after factor payload")
        values = np.empty(payload // 8, dtype="<f8")
        if fh.readinto(values) != payload:
            raise FormatError("factor file changed while it was read")
    alpha, U, V, R = np.split(values[n_diag:].reshape(n_draws, -1),
                              [1, 1 + n * d, 1 + 2 * n * d], axis=1)
    U, V, R = U.reshape(n_draws, n, d), V.reshape(n_draws, n, d), R.reshape(n_draws, T, d)
    if kind == _KIND_FACTORS:
        return LatentFactors(U[0], V[0], R[0], alpha[0, 0])
    return SampleSet(U, V, R, alpha[:, 0], values[:n_diag].tolist())


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic dataset description.

    Data follow the model's own generative process: Gaussian-Wishart
    hyperparameter draws, Gaussian factor rows, a Gamma noise precision,
    Gaussian entries, then binarization of the real entries at
    ``binarize_threshold`` (on the raw reconstruction scale; the default 0
    matches a logistic probability of one half) and uniform subsampling to
    ``observed_fraction``.  Frozen, like the other configs:
    ``dataclasses.replace`` makes a checked copy.
    """

    n_objects: int
    n_relations: int
    rank: int
    observed_fraction: float = 1.0
    binarize_threshold: float = 0.0
    seed: int = 0
    hyperpriors: Optional[HyperPriors] = None

    def __post_init__(self):
        for name in ("n_objects", "n_relations", "rank"):
            _check_count(name, getattr(self, name), 1)
        if not 0 < self.observed_fraction <= 1:
            raise ValueError("observed_fraction must be in (0, 1]")
        if not math.isfinite(self.binarize_threshold):
            raise ValueError("binarize_threshold must be finite")
        _check_seed(self.seed)


def generate_synthetic(spec: SynthSpec):
    """Draw a synthetic tensor plus its ground-truth factors.

    Returns ``(tensor, truth)``; deterministic per seed.
    """
    tensor, truth, _reals = _generate(spec)
    return tensor, truth


def _generate(spec: SynthSpec):
    d = spec.rank
    priors = spec.hyperpriors if spec.hyperpriors is not None else HyperPriors.default(d)
    if priors.rank != d:
        raise ValueError(f"hyperprior rank {priors.rank} does not match spec rank {d}")
    rng = substream(spec.seed, "synthetic")
    scale = 0.5 * (priors.w0 + priors.w0.T)

    def factor_rows(count, kappa):
        mu, precision = _sample_gaussian_wishart(rng, priors.mu0[None], np.array([kappa]),
                                                 np.array([priors.nu0]), scale[None])
        return mu[0] + _sample_gaussian_stack(rng, precision[0], np.zeros((count, d)))

    n, T = spec.n_objects, spec.n_relations
    U = factor_rows(n, priors.kappa0)
    V = factor_rows(n, priors.kappa0)
    R = factor_rows(T, priors.kappa_t)
    alpha = float(rng.gamma(priors.gamma_shape, priors.gamma_scale))
    truth = LatentFactors(U, V, R, alpha)

    means = np.einsum("id,jd,td->ijt", U, V, R)
    reals = means + rng.standard_normal((n, n, T)) / np.sqrt(alpha)
    labels = (reals > spec.binarize_threshold).astype(np.int64)

    total = n * n * T
    n_observed = int(round(spec.observed_fraction * total))
    flat = rng.choice(total, size=n_observed, replace=False)
    flat.sort()
    ii, jj, tt = np.unravel_index(flat, (n, n, T))
    return RelationalTensor(n, T, ii, jj, tt, labels[ii, jj, tt]), truth, reals
