import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkpattern.exceptions import DataConflictError
from linkpattern.gibbs import ChainConfig, HyperPriors, run_chain
from linkpattern.model import ModelConfig
from linkpattern.tensor import RelationalTensor

from conftest import TINY_TRIPLES, dense_values


def entry_lists(tensor):
    return [a.tolist() for a in tensor.entry_arrays()]


def test_build_single_entry():
    tensor = RelationalTensor.build(2, 1, [(0, 1, 0, 1)])
    assert tensor.observed_count == 1
    assert entry_lists(tensor) == [[0], [1], [0], [1.0]]


def test_build_empty():
    tensor = RelationalTensor.build(2, 1, [])
    assert tensor.observed_count == 0
    assert entry_lists(tensor) == [[], [], [], []]


def test_build_conflicting_duplicate():
    with pytest.raises(DataConflictError):
        RelationalTensor.build(2, 1, [(0, 1, 0, 1), (0, 1, 0, 0)])


def test_build_agreeing_duplicate_deduplicated():
    tensor = RelationalTensor.build(2, 1, [(0, 1, 0, 1), (0, 1, 0, 1)])
    assert tensor.observed_count == 1


@pytest.mark.parametrize("triple", [(2, 0, 0, 1), (0, 2, 0, 1), (0, 1, 1, 1), (-1, 0, 0, 1)])
def test_build_rejects_out_of_range(triple):
    with pytest.raises(IndexError):
        RelationalTensor.build(2, 1, [triple])


def test_build_rejects_bad_value():
    with pytest.raises(ValueError):
        RelationalTensor.build(2, 1, [(0, 1, 0, 2)])


@pytest.mark.parametrize("triples", [[(0, 1, 0, 0.7), (1.9, 0, 0, 1)],
                                     [(0, 1, 0, 0.7)], [(1.9, 0, 0, 1)], [(0, 1, 0.5, 1)]])
def test_build_rejects_non_integral_fields(triples):
    # truncating would store 0.7 as an observed 0 and move 1.9 to object 1
    with pytest.raises(ValueError):
        RelationalTensor.build(2, 1, triples)


@pytest.mark.parametrize("dims", [(2.7, 1.9), (3, 1.5), (2.5, 2), (float("nan"), 1)])
def test_constructor_rejects_non_integral_dimensions(dims):
    # truncating would build a 2 x 2 x 1 tensor from (2.7, 1.9)
    with pytest.raises(ValueError, match="tensor dimensions"):
        RelationalTensor(*dims, [], [], [], [])


def test_constructor_sorts_merges_and_accepts_exact_floats():
    tensor = RelationalTensor(3.0, np.float64(2), [1, 0, 1], [2, 1, 2], [1.0, 0, 1], [0.0, 1, 0])
    assert [(type(d), d) for d in (tensor.n_objects, tensor.n_relations)] == [(int, 3), (int, 2)]
    ii, jj, tt, yy = tensor.entry_arrays()
    assert [a.tolist() for a in (ii, jj, tt, yy)] == [[0, 1], [1, 2], [0, 1], [1.0, 0.0]]
    assert [a.dtype for a in (ii, jj, tt, yy)] == [np.int64, np.int64, np.int64, np.float64]
    with pytest.raises(DataConflictError):
        RelationalTensor(3, 2, [1, 1], [2, 2], [1, 1], [0, 1])


def test_entry_arrays_are_read_only(tiny_tensor):
    for arr in tiny_tensor.entry_arrays():
        with pytest.raises(ValueError):
            arr[0] = 0
    assert [a[0] for a in tiny_tensor.entry_arrays()] == [0, 1, 0, 1.0]


def test_slice_exposes_single_relation():
    tensor = RelationalTensor.build(2, 2, [(0, 1, 0, 1)])
    sl = tensor.slice(0)
    assert sl.observed_count == 1
    assert entry_lists(sl.to_tensor()) == [[0], [1], [0], [1.0]]
    assert tensor.slice(1).observed_count == 0
    with pytest.raises(IndexError):
        tensor.slice(2)


def test_slice_counts_partition_observed_count(tiny_tensor):
    total = sum(tiny_tensor.slice(t).observed_count for t in range(tiny_tensor.n_relations))
    assert total == tiny_tensor.observed_count


def test_slice_to_tensor_roundtrip(tiny_tensor):
    sl = tiny_tensor.slice(1)
    as_tensor = sl.to_tensor()
    assert as_tensor.n_relations == 1
    assert as_tensor.observed_count == sl.observed_count
    np.testing.assert_array_equal(dense_values(as_tensor)[:, :, 0],
                                  dense_values(tiny_tensor)[:, :, 1])


def test_slice_is_the_t1_tensor_itself(tiny_tensor):
    sl = tiny_tensor.slice(1)
    assert isinstance(sl, RelationalTensor) and not hasattr(sl, "__dict__")
    assert sl.to_tensor() is sl
    ii, jj, _tt, yy = (a[tiny_tensor.entry_arrays()[2] == 1] for a in tiny_tensor.entry_arrays())
    plain = RelationalTensor(tiny_tensor.n_objects, 1, ii, jj, np.zeros_like(ii), yy)
    assert sl == plain
    restored = pickle.loads(pickle.dumps(sl))
    assert type(restored) is RelationalTensor and restored == sl


def test_run_chain_takes_a_slice(tiny_tensor):
    sl = tiny_tensor.slice(0)
    plain = RelationalTensor(sl.n_objects, 1, *sl.entry_arrays())
    model_cfg, priors = ModelConfig(2, use_logistic=False), HyperPriors.default(2)
    chain_cfg = ChainConfig(num_samples=4, burn_in=1, seed=3)
    draws = [run_chain(tensor, model_cfg, priors, chain_cfg, frozen_relations=np.ones((1, 2)))
             for tensor in (sl, plain)]
    for name in ("U", "V", "R", "alpha", "log_likelihoods"):
        np.testing.assert_array_equal(*(getattr(s, name) for s in draws))


def test_fiber_keys_sorted_int64_array(tiny_tensor):
    keys = tiny_tensor.fiber_keys()
    assert keys.dtype == np.int64 and keys.shape == (6, 2)
    assert keys.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]
    assert RelationalTensor.build(3, 2, []).fiber_keys().shape == (0, 2)
    hidden = keys[[0, 4]]
    assert tiny_tensor.hide_fibers(hidden) == tiny_tensor.hide_fibers([(0, 1), (2, 0)])


def test_hide_fibers_moves_whole_patterns():
    tensor = RelationalTensor.build(2, 3, [(0, 1, t, 1) for t in range(3)])
    train, test = tensor.hide_fibers([(0, 1)])
    assert test.observed_count == 3
    assert train.observed_count == 0


def test_hide_fibers_identity_and_total():
    tensor = RelationalTensor.build(2, 2, [(0, 1, 0, 1), (1, 0, 1, 0)])
    train, test = tensor.hide_fibers([])
    assert train == tensor and test.observed_count == 0
    train, test = tensor.hide_fibers([(0, 1), (1, 0)])
    assert train.observed_count == 0 and test == tensor


def test_merged_with_and_without_relation(tiny_tensor):
    train, test = tiny_tensor.hide_fibers([(0, 1), (2, 0)])
    assert train.merged_with(test) == tiny_tensor
    dropped = tiny_tensor.without_relation(0)
    assert dropped.observed_count == tiny_tensor.slice(1).observed_count
    with pytest.raises(DataConflictError):
        RelationalTensor.build(2, 1, [(0, 1, 0, 1)]).merged_with(RelationalTensor.build(2, 1, [(0, 1, 0, 0)]))


def test_entry_arrays_sorted_and_consistent(tiny_tensor):
    ii, jj, tt, yy = tiny_tensor.entry_arrays()
    keys = list(zip(ii.tolist(), jj.tolist(), tt.tolist()))
    assert keys == sorted(keys)
    assert list(zip(*entry_lists(tiny_tensor))) == sorted(TINY_TRIPLES)


triples_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)),
    max_size=30, unique_by=lambda q: q[:3])


@settings(max_examples=60, deadline=None)
@given(triples=triples_strategy)
def test_mask_value_consistency(triples):
    tensor = RelationalTensor.build(4, 3, triples)
    expected = np.full((4, 4, 3), np.nan)
    for (i, j, t, v) in triples:
        expected[i, j, t] = v
    np.testing.assert_array_equal(dense_values(tensor), expected)


@settings(max_examples=60, deadline=None)
@given(triples=triples_strategy,
       hidden=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6))
def test_hide_fibers_partition_property(triples, hidden):
    tensor = RelationalTensor.build(4, 3, triples)
    train, test = tensor.hide_fibers(hidden)
    train_keys = set(train.observed_keys())
    test_keys = set(test.observed_keys())
    assert train_keys | test_keys == set(tensor.observed_keys())
    assert not (train_keys & test_keys)
    for (i, j, t) in test_keys:
        assert (i, j) in hidden
    in_hidden = np.zeros((4, 4, 1), dtype=bool)
    for (i, j) in hidden:
        in_hidden[i, j] = True
    np.testing.assert_array_equal(dense_values(test),
                                  np.where(in_hidden, dense_values(tensor), np.nan))


@settings(max_examples=40, deadline=None)
@given(triples=triples_strategy)
def test_slice_fiber_consistency(triples):
    tensor = RelationalTensor.build(4, 3, triples)
    patterns = dense_values(tensor)
    for t in range(3):
        np.testing.assert_array_equal(dense_values(tensor.slice(t).to_tensor())[:, :, 0],
                                      patterns[:, :, t])


keyed_triples_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)),
    max_size=30)


@settings(max_examples=80, deadline=None)
@given(triples=keyed_triples_strategy, seed=st.integers(0, 2**32 - 1))
def test_sorted_and_shuffled_input_give_the_same_tensor(triples, seed):
    # the first value of each key wins, so repeats agree; sorted input with
    # repeats does not increase strictly and must take the sort path too
    first = {}
    rows = np.array([(i, j, t, first.setdefault((i, j, t), v)) for i, j, t, v in triples],
                    dtype=np.int64).reshape(-1, 4)
    shuffled = np.random.default_rng(seed).permutation(rows)
    in_order = rows[np.lexsort(rows[:, 2::-1].T)]
    distinct = np.unique(rows, axis=0)
    tensors = [RelationalTensor.build(4, 3, table) for table in (shuffled, in_order, distinct)]
    for tensor in tensors[1:]:
        assert [(a.dtype, a.tobytes()) for a in tensor.entry_arrays()] == \
               [(a.dtype, a.tobytes()) for a in tensors[0].entry_arrays()]
    assert tensors[0].observed_count == len(first)


def test_sorted_input_merges_agreeing_and_rejects_conflicting_repeats():
    ii, jj, tt = [0, 0, 1], [1, 1, 0], [0, 0, 1]
    assert entry_lists(RelationalTensor(2, 2, ii, jj, tt, [1, 1, 0])) == \
        [[0, 1], [1, 0], [0, 1], [1.0, 0.0]]
    with pytest.raises(DataConflictError):
        RelationalTensor(2, 2, ii, jj, tt, [1, 0, 0])


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1]], ids=["sorted", "unsorted"])
def test_constructor_never_aliases_the_callers_arrays(dtype, order):
    given_arrays = [np.array(a, dtype=dtype)[order]
                    for a in ([0, 1, 2], [1, 2, 0], [0, 1, 1], [1, 0, 1])]
    tensor = RelationalTensor(3, 2, *given_arrays)
    stored = [a.copy() for a in tensor.entry_arrays()]
    for arr in given_arrays:
        assert arr.flags.writeable
        assert not any(np.shares_memory(arr, own) for own in tensor.entry_arrays())
        arr[:] = 0
    assert all(map(np.array_equal, tensor.entry_arrays(), stored))


@settings(max_examples=60, deadline=None)
@given(triples=triples_strategy)
def test_fiber_keys_equal_the_unique_pairs(triples):
    tensor = RelationalTensor.build(4, 3, triples)
    ii, jj, _tt, _yy = tensor.entry_arrays()
    expected = np.stack(np.divmod(np.unique(ii * 4 + jj), 4), axis=1)
    keys = tensor.fiber_keys()
    assert keys.dtype == expected.dtype and keys.shape == expected.shape
    np.testing.assert_array_equal(keys, expected)


def test_immutability_via_constructors(tiny_tensor):
    before = set(tiny_tensor.observed_keys())
    train, test = tiny_tensor.hide_fibers([(0, 1)])
    tiny_tensor.slice(0)
    tiny_tensor.without_relation(1)
    assert set(tiny_tensor.observed_keys()) == before
