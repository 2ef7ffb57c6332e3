import hashlib
import struct
import warnings

import numpy as np
import pytest

from linkpattern import gibbs, model
from linkpattern import io as io_module
from linkpattern.exceptions import DimensionMismatchError, FormatError, TripleParseError
from linkpattern.gibbs import HyperPriors, SampleSet
from linkpattern.io import (SynthSpec, _generate, _table_of_lines as table_of_lines,
                            generate_synthetic, load_factors, load_triples, save_factors,
                            save_triples)
from linkpattern.model import LatentFactors
from linkpattern.tensor import RelationalTensor

from test_acceptance import acceptance_dataset


def test_load_triples_basic(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("2 1\n0 1 0 1\n")
    tensor = load_triples(path)
    assert tensor.n_objects == 2 and tensor.n_relations == 1
    assert [a.tolist() for a in tensor.entry_arrays()] == [[0], [1], [0], [1.0]]
    assert tensor.observed_count == 1


def test_load_triples_reads_a_byte_order_mark_as_plain_utf8(tmp_path):
    body = "3 2\n0 1 0 1\n1 2 1 0\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(body, encoding="utf-8")
    marked.write_text("\ufeff" + body, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_triples(marked) == load_triples(plain)


def test_load_triples_comments_and_blanks(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# a comment\n\n3 2\n0 1 0 1\n# another\n\n1 2 1 0\n")
    tensor = load_triples(path)
    assert tensor.observed_count == 2


def test_load_triples_blank_lines_without_comments(tmp_path):
    # no "#" in the file: the lines go to the parser unfiltered
    path = tmp_path / "t.tsv"
    path.write_text("\n3 2\n\n0 1 0 1\n  \n\t\n1 2 1 0\n\n")
    tensor = load_triples(path)
    assert [a.tolist() for a in tensor.entry_arrays()] == [[0, 1], [1, 2], [0, 1], [1.0, 0.0]]
    path.write_text("3 2\n\n \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_triples(path).observed_count == 0


@pytest.mark.parametrize("body,line", [
    ("\n\n0 1 0 1\n \n0 1 0 x", 6),  # a bad line after blank lines, no comments
    ("0 1 0 1\n\n1 2 1 0 # note", 4),  # a mid-line "#" after blank lines
])
def test_load_triples_errors_after_blank_lines_name_the_line(tmp_path, body, line):
    path = tmp_path / "bad.tsv"
    path.write_text(f"3 2\n{body}\n")
    with pytest.raises(TripleParseError) as err:
        load_triples(path)
    assert err.value.line_number == line


@pytest.mark.parametrize("body,line", [
    ("0 1 0 2", 2),        # bad value
    ("0 1 0", 2),          # short line
    ("0 1 0 x", 2),        # non-integer
    ("0 5 0 1", 2),        # object out of range
    ("0 1 7 1", 2),        # relation out of range
    ("0 1 0 1.0", 2),      # integer fields only, not floats
    ("0 1 0 1.5", 2),
    ("0 1 0 1 # note", 2),  # comments take whole lines
    ("# note\n\n0 1 0 2", 4),  # comment and blank lines are counted
])
def test_load_triples_parse_errors_name_the_line(tmp_path, body, line):
    path = tmp_path / "bad.tsv"
    path.write_text(f"3 2\n{body}\n")
    with pytest.raises(TripleParseError) as err:
        load_triples(path)
    assert err.value.line_number == line
    assert f"line {line}" in str(err.value)


@pytest.mark.parametrize("seed", range(3))
def test_load_triples_names_the_first_of_several_bad_lines(tmp_path, seed):
    rng = np.random.default_rng(seed)
    bad_lines = ["0 1 0 7", "0 1", "0 1 0 x", "3 0 0 1"]
    lines = ["3 2"] + [f"{i} {j} {t} {(i + j + t) % 2}"
                       for i, j, t in rng.integers(0, 2, size=(300, 3))]
    for k in rng.choice(np.arange(1, len(lines)), size=30, replace=False):
        lines[k] = str(rng.choice(["", "# note"] + bad_lines))
    path = tmp_path / "bad.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TripleParseError) as err:
        load_triples(path)
    assert err.value.line_number == 1 + next(k for k, line in enumerate(lines)
                                             if line in bad_lines)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "bom"])
@pytest.mark.parametrize("last", ["\n", ""], ids=["final-newline", "no-final-newline"])
def test_load_triples_reads_alike_with_and_without_a_comment(tmp_path, monkeypatch,
                                                              newline, mark, last):
    # without "#" the file is parsed from disk; a comment sends it through the
    # line strings, which must give the same tensor
    lines = ["", " ", "3 2", "0\t1 0 1", "", "1 2\t1  0", "2 0 1 1"]
    commented = lines[:4] + ["# a comment"] + lines[4:]
    split = []

    def counted(lines, *rest):
        split.append(len(lines))
        return table_of_lines(lines, *rest)

    monkeypatch.setattr(io_module, "_table_of_lines", counted)
    tensors = []
    for name, body in (("plain", lines), ("commented", commented)):
        path = tmp_path / f"{name}.tsv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(mark + newline.join(body) + last)
        tensors.append(load_triples(path))
        # the header is one line; only the commented body is split into lines
        assert (max(split) > 1) == (name == "commented")
    assert tensors[0] == tensors[1] == RelationalTensor.build(
        3, 2, [(0, 1, 0, 1), (1, 2, 1, 0), (2, 0, 1, 1)])


def test_load_triples_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("2\n")
    with pytest.raises(TripleParseError):
        load_triples(path)
    path.write_text("")
    with pytest.raises(TripleParseError):
        load_triples(path)


def test_triples_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(0)
    triples = [(i, j, t, int(rng.random() < 0.5))
               for i in range(5) for j in range(5) for t in range(3)
               if rng.random() < 0.4]
    tensor = RelationalTensor.build(5, 3, triples)
    path = tmp_path / "round.tsv"
    save_triples(tensor, path)
    assert load_triples(path) == tensor


def random_factors(seed=1, n=4, t=3, d=2):
    rng = np.random.default_rng(seed)
    return LatentFactors(rng.normal(size=(n, d)), rng.normal(size=(n, d)),
                         rng.normal(size=(t, d)), alpha=float(rng.gamma(2.0, 1.0)))


def test_factor_roundtrip_bitwise(tmp_path):
    factors = random_factors()
    path = tmp_path / "f.pltf"
    save_factors(factors, path)
    loaded = load_factors(path)
    assert isinstance(loaded, LatentFactors)
    assert np.array_equal(loaded.U, factors.U)
    assert np.array_equal(loaded.V, factors.V)
    assert np.array_equal(loaded.R, factors.R)
    assert loaded.alpha == factors.alpha


def test_sample_set_roundtrip_bitwise(tmp_path):
    samples = SampleSet.of([random_factors(seed=k) for k in range(3)],
                           log_likelihoods=[-1.5, -1.25, -1.0, -0.75])
    path = tmp_path / "s.pltf"
    save_factors(samples, path)
    loaded = load_factors(path)
    assert isinstance(loaded, SampleSet)
    assert loaded.log_likelihoods == samples.log_likelihoods
    assert len(loaded) == 3
    for a, b in zip(loaded.draws, samples.draws):
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
        assert np.array_equal(a.R, b.R) and a.alpha == b.alpha


@pytest.mark.parametrize("make,digest", [
    pytest.param(lambda: random_factors(seed=5, n=6, t=3, d=2),
                 "d53b27c38cb90be1abc12784aa7ab8fc033d3ae5d26115e55a96d55b858d9995",
                 id="factors"),
    pytest.param(lambda: SampleSet.of([random_factors(seed=k, n=6, t=3, d=2)
                                       for k in range(3)],
                                      log_likelihoods=[-3.5, -2.25, -1.0, -0.5]),
                 "c437e22bd24c400211fcd45b6f65b1f787c0752e81d1e1e9a264fb708f48e5dd",
                 id="sample-set"),
])
def test_factor_files_are_pinned(tmp_path, make, digest):
    # the factor format is what ``sample`` hands to ``predict``: the bytes
    # of a seeded single factor set and a 3-draw sample set are pinned
    path = tmp_path / "f.pltf"
    save_factors(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# bytes from the end of a file of N=4, T=3, D=2 draws: its last R entry,
# and the alpha that opens its last record
@pytest.mark.parametrize("back, value", [(8, float("nan")), (8 * (1 + (2 * 4 + 3) * 2), 0.0)],
                         ids=["nan-in-R", "zero-alpha"])
def test_load_factors_checks_every_draw(tmp_path, back, value):
    # the set is checked as one stack when it is built; a bad value in its
    # last draw is still refused
    path = tmp_path / "s.pltf"
    save_factors(SampleSet.of([random_factors(seed=k, n=4, t=3, d=2) for k in range(3)],
                              log_likelihoods=[-1.0]), path)
    data = bytearray(path.read_bytes())
    data[len(data) - back:len(data) - back + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        load_factors(path)


def test_load_factors_checks_a_sample_set_once(tmp_path, monkeypatch):
    # one check of the whole stack and no per-draw LatentFactors; the
    # stacks are views of the payload's records
    path = tmp_path / "s.pltf"
    save_factors(SampleSet.of([random_factors(seed=k) for k in range(3)]), path)
    calls = []

    def counted(module):
        check = module._checked_factors

        def wrapper(*args, **kwargs):
            calls.append(module.__name__)
            return check(*args, **kwargs)
        return wrapper

    for module in (gibbs, model):
        monkeypatch.setattr(module, "_checked_factors", counted(module))
    loaded = load_factors(path)
    assert calls == ["linkpattern.gibbs"]
    # N=4, T=3, D=2: each record is alpha, U, V, R, and each stack steps a record
    address = [getattr(loaded, name).__array_interface__["data"][0]
               for name in ("alpha", "U", "V", "R")]
    assert np.diff(address).tolist() == [8, 8 * 4 * 2, 8 * 4 * 2]
    assert {stack.strides[0] for stack in (loaded.alpha, loaded.U, loaded.V, loaded.R)} == {
        8 * (1 + (2 * 4 + 3) * 2)}


@pytest.mark.parametrize("shape", [(5, 3, 2), (4, 2, 2), (4, 3, 1)], ids=["N", "T", "D"])
def test_save_factors_rejects_draws_of_different_shapes(tmp_path, shape):
    # a file written from mixed shapes would fail to load as truncated or
    # trailing; such a sample set cannot be built, so no file is opened
    path = tmp_path / "s.pltf"
    draws = [random_factors(seed=0, n=4, t=3, d=2), random_factors(seed=1, n=shape[0],
                                                                   t=shape[1], d=shape[2])]
    with pytest.raises(DimensionMismatchError):
        save_factors(SampleSet.of(draws, log_likelihoods=[-1.0]), path)
    assert not path.exists()


def test_factor_file_truncation_error(tmp_path):
    path = tmp_path / "f.pltf"
    save_factors(random_factors(), path)
    data = path.read_bytes()
    path.write_bytes(data[:-9])
    with pytest.raises(FormatError):
        load_factors(path)


def test_factor_file_magic_and_version_errors(tmp_path):
    path = tmp_path / "f.pltf"
    save_factors(random_factors(), path)
    data = bytearray(path.read_bytes())
    bad_magic = tmp_path / "bad_magic.pltf"
    bad_magic.write_bytes(b"XXXX" + bytes(data[4:]))
    with pytest.raises(FormatError):
        load_factors(bad_magic)
    bad_version = tmp_path / "bad_version.pltf"
    data[4] = 99
    bad_version.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_factors(bad_version)


def test_factor_file_trailing_bytes_error(tmp_path):
    path = tmp_path / "f.pltf"
    save_factors(random_factors(), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_factors(path)


def write_factor_header(path, kind, n, t, d, n_draws, n_diag, payload=b""):
    path.write_bytes(b"PLTF" + struct.pack("<BB", 1, kind)
                     + struct.pack("<IIIII", n, t, d, n_draws, n_diag) + payload)


def test_factor_file_kind0_with_many_draws_error(tmp_path):
    # a sample set relabelled as a single factor set must not silently
    # drop every draw but the first
    path = tmp_path / "f.pltf"
    save_factors(SampleSet.of([random_factors(seed=k) for k in range(2)],
                              log_likelihoods=[-1.0, -2.0]), path)
    data = bytearray(path.read_bytes())
    data[5] = 0
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_factors(path)


def test_factor_file_oversized_header_error(tmp_path):
    path = tmp_path / "f.pltf"
    write_factor_header(path, 0, 2 ** 31, 1, 2 ** 31, 1, 0, payload=bytes(64))
    with pytest.raises(FormatError):
        load_factors(path)


def test_factor_file_empty_dimensions_error(tmp_path):
    path = tmp_path / "f.pltf"
    write_factor_header(path, 0, 0, 0, 0, 1, 0, payload=struct.pack("<d", 1.0))
    with pytest.raises(FormatError):
        load_factors(path)


def test_save_factors_rejects_unknown_and_empty(tmp_path):
    with pytest.raises(TypeError):
        save_factors(object(), tmp_path / "x.pltf")
    with pytest.raises(ValueError):  # an empty set cannot be built
        save_factors(SampleSet.of([]), tmp_path / "x.pltf")


def test_generate_synthetic_full_observation():
    spec = SynthSpec(4, 3, 2, observed_fraction=1.0, seed=0)
    tensor, truth = generate_synthetic(spec)
    assert tensor.observed_count == 4 * 4 * 3
    assert truth.n_objects == 4 and truth.n_relations == 3 and truth.rank == 2


def test_generate_synthetic_deterministic():
    spec = SynthSpec(6, 2, 2, observed_fraction=0.5, seed=7)
    t1, f1 = generate_synthetic(spec)
    t2, f2 = generate_synthetic(spec)
    assert t1 == t2
    assert np.array_equal(f1.U, f2.U) and f1.alpha == f2.alpha
    t3, _ = generate_synthetic(SynthSpec(6, 2, 2, observed_fraction=0.5, seed=8))
    assert t3 != t1


@pytest.mark.parametrize("make,digest", [
    pytest.param(acceptance_dataset,
                 "3967b6d8acbb58938728509c2f2c8e83e2bf237da20d31017bb59dbf7c953ad9",
                 id="acceptance"),
    pytest.param(lambda: generate_synthetic(SynthSpec(104, 26, 11, seed=1))[0],
                 "29813caae5f15b240d5e69bb8bea9131690232a4294a82e2bf284d6ce290c376",
                 id="kinship-shaped-seed-1"),
])
def test_generated_triple_files_are_pinned(tmp_path, make, digest):
    # The generator draws its true factor rows through the Gibbs block
    # sampler; a change there that flipped a single label would move every
    # acceptance margin, so the triple files' bytes are pinned.
    path = tmp_path / "data.tsv"
    save_triples(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_generate_synthetic_validation():
    with pytest.raises(ValueError):
        SynthSpec(4, 2, 2, observed_fraction=0.0)
    with pytest.raises(ValueError):
        SynthSpec(4, 2, 0)
    with pytest.raises(ValueError):
        generate_synthetic(SynthSpec(4, 2, 2, hyperpriors=HyperPriors.default(3)))


def test_generator_symmetry_of_pre_threshold_entries():
    # with a zero prior mean, the real entries are symmetric about zero:
    # across seeds, the grand mean sits within 3 standard errors of zero
    means = []
    for seed in range(12):
        # the dense pre-threshold real entries behind generate_synthetic
        reals = _generate(SynthSpec(20, 20, 3, observed_fraction=1.0, seed=seed))[2]
        means.append(float(reals.mean()))
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(len(means))
    assert abs(means.mean()) <= 3 * se


def test_generator_threshold_sign_flip_complements_marginal():
    pos_rates, complement_rates = [], []
    for seed in range(12):
        base = SynthSpec(20, 20, 3, observed_fraction=1.0, binarize_threshold=0.4, seed=seed)
        flipped = SynthSpec(20, 20, 3, observed_fraction=1.0, binarize_threshold=-0.4, seed=seed)
        for spec, sink in ((base, pos_rates), (flipped, complement_rates)):
            tensor, _ = generate_synthetic(spec)
            _ii, _jj, _tt, yy = tensor.entry_arrays()
            sink.append(float(yy.mean()))
    sums = np.asarray(pos_rates) + np.asarray(complement_rates)
    se = sums.std(ddof=1) / np.sqrt(len(sums))
    assert abs(sums.mean() - 1.0) <= 3 * se
