"""Label space: construction rules, encodings, and the disjoint mask layout."""

import numpy as np
import pytest

from disembed.errors import ConfigurationError
from disembed.labelspace import LabelSpace, Notion

from conftest import mask


def test_tag_ordering_is_concatenated_notion_order(small_space):
    assert small_space.tags == ("red", "blue", "round", "square")
    assert small_space.num_tags == 4
    assert small_space.num_notions == 2


def test_embedding_dim_must_divide():
    with pytest.raises(ConfigurationError):
        LabelSpace([("a", ["x"]), ("b", ["y"]), ("c", ["z"])], embedding_dim=8)


def test_duplicate_tags_rejected():
    with pytest.raises(ConfigurationError):
        LabelSpace([("a", ["x", "y"]), ("b", ["y"])], embedding_dim=2)


def test_duplicate_notion_names_rejected():
    with pytest.raises(ConfigurationError):
        LabelSpace([("a", ["x"]), ("a", ["y"])], embedding_dim=2)


def test_empty_space_rejected():
    with pytest.raises(ConfigurationError):
        LabelSpace([], embedding_dim=4)


def test_multi_hot_round_trip(small_space):
    v = small_space.multi_hot(["blue", "square"])
    assert np.array_equal(v, [0, 1, 0, 1])
    assert small_space.decode(v) == ("blue", "square")


def test_multi_hot_unknown_tag(small_space):
    with pytest.raises(ConfigurationError):
        small_space.multi_hot(["green"])


def test_decode_wrong_length(small_space):
    with pytest.raises(ConfigurationError):
        small_space.decode(np.zeros(3))


def test_notion_of(small_space):
    assert small_space.notion_of("red") == "color"
    assert small_space.notion_of("square") == "shape"
    with pytest.raises(ConfigurationError):
        small_space.notion_of("nope")


def test_block_slices_partition_dimension(small_space):
    assert small_space.block_slice("color") == slice(0, 4)
    assert small_space.block_slice("shape") == slice(4, 8)
    assert small_space.block_size == 4


def test_masks_partition_and_orthogonality(small_space):
    masks = [mask(small_space, n.name) for n in small_space.notions]
    total = sum(masks)
    assert np.array_equal(total, np.ones(8))
    for i, mi in enumerate(masks):
        for mj in masks[i + 1 :]:
            assert np.dot(mi, mj) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_masks_partition_random_spaces(seed):
    # randomized layouts: notion count 1..6, any divisible embedding width
    rng = np.random.default_rng(seed)
    g = int(rng.integers(1, 7))
    d = g * int(rng.integers(1, 9))
    notions = [
        (f"n{i}", [f"n{i}t{j}" for j in range(int(rng.integers(1, 5)))])
        for i in range(g)
    ]
    space = LabelSpace(notions, embedding_dim=d)
    masks = [mask(space, n.name) for n in space.notions]
    assert np.array_equal(sum(masks), np.ones(d))
    stacked = np.stack(masks)
    # each dimension belongs to exactly one mask
    assert np.array_equal(stacked.sum(axis=0), np.ones(d))
    gram = stacked @ stacked.T
    assert np.array_equal(gram, np.diag(np.diag(gram)))


def test_tag_indices_of_notion(small_space):
    assert np.array_equal(small_space.tag_indices_of_notion("shape"), [2, 3])


def test_dict_round_trip(small_space):
    d = small_space.to_dict()
    back = LabelSpace.from_dict(d)
    assert back.tags == small_space.tags
    assert back.embedding_dim == small_space.embedding_dim
    assert [n.name for n in back.notions] == ["color", "shape"]


def test_from_dict_rejects_malformed():
    with pytest.raises(ConfigurationError):
        LabelSpace.from_dict({"notions": [{"name": "a"}], "embedding_dim": 4})


# names and the width of the wrong type: a string of tags used to be split
# into one-letter tags, and a bool or float width was converted silently
BAD_DECLARATIONS = {
    "tags_string": ([("genre", "rock")], 4, "notion key 'tags'"),
    "tag_int": ([("genre", ["rock", 7])], 4, "notion key 'tags'"),
    "notion_int": ([(3, ["rock"])], 4, "notion key 'name'"),
    "notion_empty": ([("", ["rock"])], 4, "notion key 'name'"),
    "second_tag_int": ([("genre", ["rock"]), ("mood", [7])], 4,
                       "^label space key 'notions' entry 1: notion key 'tags'"),
    "dim_bool": ([("genre", ["rock"])], True, "'embedding_dim'"),
    "dim_float": ([("genre", ["rock"])], 4.0, "'embedding_dim'"),
}


# declarations that are not objects or lists where the file format wants
# them used to escape with Python's "list indices must be integers..." or
# "'NoneType' object is not subscriptable"
BAD_STRUCTURES = {
    "space_list": ([{"name": "a", "tags": ["x"]}], r"^label space: expected an object"),
    "space_null": (None, r"^label space: expected an object"),
    "notions_int": ({"notions": 5, "embedding_dim": 4},
                    r"^label space key 'notions': expected a list"),
    "notions_object": ({"notions": {"name": "a"}, "embedding_dim": 4},
                       r"^label space key 'notions': expected a list"),
    "notion_null": ({"notions": [{"name": "a", "tags": ["x"]}, None],
                     "embedding_dim": 4},
                    r"^label space key 'notions' entry 1: expected an object"),
    "notion_list": ({"notions": [["a", ["x"]]], "embedding_dim": 4},
                    r"^label space key 'notions' entry 0: expected an object"),
    "tags_missing": ({"notions": [{"name": "a"}], "embedding_dim": 4},
                     r"^label space key 'notions' entry 0: notion key 'tags'"),
    "second_name_null": ({"notions": [{"name": "a", "tags": ["x"]},
                                      {"tags": ["y"]}], "embedding_dim": 4},
                         r"^label space key 'notions' entry 1: notion key 'name'"),
    "dim_missing": ({"notions": [{"name": "a", "tags": ["x"]}]},
                    r"^label space key 'embedding_dim'"),
}


@pytest.mark.parametrize("case", list(BAD_STRUCTURES))
def test_from_dict_names_the_key_of_a_bad_structure(case):
    d, message = BAD_STRUCTURES[case]
    with pytest.raises(ConfigurationError, match=message):
        LabelSpace.from_dict(d)


@pytest.mark.parametrize("case", list(BAD_DECLARATIONS))
def test_declaration_of_the_wrong_type_is_refused(case):
    notions, dim, key = BAD_DECLARATIONS[case]
    with pytest.raises(ConfigurationError, match=key):
        LabelSpace(notions, embedding_dim=dim)
    d = {"notions": [{"name": n, "tags": t} for n, t in notions],
         "embedding_dim": dim}
    with pytest.raises(ConfigurationError, match=key):
        LabelSpace.from_dict(d)


# a notion that is neither a Notion nor a (name, tags) pair used to escape
# as a raw TypeError or IndexError
@pytest.mark.parametrize("notions,position", [
    ([5], 0), ([("a",)], 0), ([("a", ["x"]), "b"], 1),
    ([("a", ["x"]), ("b", ["y"], "z")], 1)])
def test_notion_of_the_wrong_shape_names_its_position(notions, position):
    with pytest.raises(ConfigurationError, match=(
            rf"^label space key 'notions' entry {position}: "
            r"expected a Notion or a \(name, tags\) pair")):
        LabelSpace(notions, embedding_dim=4)


def test_notion_dataclass_accepted_directly():
    space = LabelSpace([Notion("a", ("x",)), Notion("b", ("y",))], embedding_dim=4)
    assert space.tags == ("x", "y")


def test_mask_is_binary(small_space):
    m = mask(small_space, "color")
    assert np.array_equal(m, [1.0] * 4 + [0.0] * 4)
    assert not m.flags.writeable


@pytest.mark.parametrize("dim", [8, 64])
def test_cached_block_masks_equal_per_notion_masks(small_space, dim):
    space = LabelSpace([(n.name, n.tags) for n in small_space.notions], dim)
    def block_mask(notion):
        v = np.zeros(dim)
        v[space.block_slice(notion)] = 1.0
        return v

    by_notion = np.stack([block_mask(n.name) for n in space.notions])
    by_tag = np.stack([block_mask(space.notion_of(t)) for t in space.tags])
    for cached, want in ((space.notion_block_mask, by_notion),
                         (space.tag_block_mask, by_tag)):
        assert np.array_equal(cached, want)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 2.0
    assert space.notion_block_mask is space.notion_block_mask
