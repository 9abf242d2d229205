"""Similarity notions, tags, multi-hot encodings, and the disjoint mask layout.

A label space is an ordered list of notions (e.g. genre, mood), each owning an
ordered list of tags.  The embedding dimension is split into contiguous equal
blocks, one per notion, in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import ConfigurationError, as_count, check_types


def _name(v) -> str:
    if not isinstance(v, str) or not v:
        raise TypeError(f"expected a non-empty string, got {v!r}")
    return v


def _tag_names(v) -> tuple:
    """``v``, a list or tuple of strings, as a tuple; the TSV format's rules
    on a tag name's characters are ``save_dataset``'s."""
    if not isinstance(v, (list, tuple)) or not all(isinstance(t, str) for t in v):
        raise TypeError(f"expected a list of tag names, got {v!r}")
    return tuple(v)


@dataclass(frozen=True)
class Notion:
    name: str
    tags: tuple[str, ...]

    def __post_init__(self):
        check_types(self, {"name": _name, "tags": _tag_names}, "notion")
        object.__setattr__(self, "tags", tuple(self.tags))


def _notion_list(v) -> tuple:
    """``v``, a list or tuple of notions, as a tuple; each entry is
    ``_notion``'s to check."""
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"expected a list, got {v!r}")
    return tuple(v)


def _notion(i: int, n) -> Notion:
    """``n``, a ``Notion`` or a ``(name, tags)`` pair, as a ``Notion``; errors
    name its position ``i``."""
    if isinstance(n, Notion):
        return n
    where = f"label space key 'notions' entry {i}"
    if not isinstance(n, (tuple, list)) or len(n) != 2:
        raise ConfigurationError(
            f"{where}: expected a Notion or a (name, tags) pair, got {n!r}")
    try:
        return Notion(*n)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


class LabelSpace:
    """Immutable declaration of notions, tags, and the embedding layout."""

    def __init__(self, notions, embedding_dim: int):
        self.notions, self.embedding_dim = notions, embedding_dim
        check_types(self, {"notions": _notion_list, "embedding_dim": as_count},
                    "label space")
        notions = tuple(_notion(i, n) for i, n in enumerate(notions))
        if not notions:
            raise ConfigurationError("label space needs at least one notion")
        if embedding_dim % len(notions) != 0:
            raise ConfigurationError(
                f"embedding_dim {embedding_dim} not divisible by "
                f"{len(notions)} notions"
            )
        self.notions = notions
        self.embedding_dim = int(embedding_dim)
        self.tags: tuple[str, ...] = tuple(t for n in notions for t in n.tags)
        if len(set(self.tags)) != len(self.tags):
            raise ConfigurationError("tag names must be unique across notions")
        self.tag_index = {t: i for i, t in enumerate(self.tags)}
        self._tag_notion = {t: n.name for n in notions for t in n.tags}
        self._notion_index = {n.name: i for i, n in enumerate(notions)}
        if len(self._notion_index) != len(notions):
            raise ConfigurationError("notion names must be unique")

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    @property
    def num_notions(self) -> int:
        return len(self.notions)

    @property
    def block_size(self) -> int:
        return self.embedding_dim // self.num_notions

    def notion_index(self, name: str) -> int:
        if name not in self._notion_index:
            raise ConfigurationError(f"unknown notion: {name!r}")
        return self._notion_index[name]

    def notion_of(self, tag: str) -> str:
        """The unique notion owning ``tag``."""
        if tag not in self._tag_notion:
            raise ConfigurationError(f"unknown tag: {tag!r}")
        return self._tag_notion[tag]

    def tag_indices_of_notion(self, name: str) -> np.ndarray:
        i = self.notion_index(name)
        return np.array(
            [self.tag_index[t] for t in self.notions[i].tags], dtype=np.intp
        )

    def block_slice(self, name: str) -> slice:
        i = self.notion_index(name)
        b = self.block_size
        return slice(i * b, (i + 1) * b)

    def multi_hot(self, tags) -> np.ndarray:
        """Bool vector over all tags in global ordering, True at ``tags``."""
        v = np.zeros(self.num_tags, dtype=bool)
        for t in tags:
            if t not in self.tag_index:
                raise ConfigurationError(f"unknown tag: {t!r}")
            v[self.tag_index[t]] = True
        return v

    def decode(self, vector) -> tuple[str, ...]:
        """Inverse of multi_hot on tag sets: the tags whose entry is nonzero.

        The row is read through ``tolist``: Python bools, ints or floats,
        where iterating an array would make one numpy scalar per entry."""
        vector = np.asarray(vector)
        if vector.shape != (self.num_tags,):
            raise ConfigurationError(
                f"expected label vector of length {self.num_tags}"
            )
        return tuple(compress(self.tags, vector.tolist()))

    @cached_property
    def notion_block_mask(self) -> np.ndarray:
        """Read-only (notions, d) 0/1 matrix whose row i is notion i's mask."""
        m = np.kron(np.eye(self.num_notions), np.ones((1, self.block_size)))
        m.flags.writeable = False
        return m

    @cached_property
    def tag_block_mask(self) -> np.ndarray:
        """Read-only (tags, d) 0/1 matrix whose row t is the mask of t's notion."""
        m = np.zeros((self.num_tags, self.embedding_dim))
        for notion in self.notions:
            m[self.tag_indices_of_notion(notion.name),
              self.block_slice(notion.name)] = 1.0
        m.flags.writeable = False
        return m

    def to_dict(self) -> dict:
        return {
            "notions": [{"name": n.name, "tags": list(n.tags)} for n in self.notions],
            "embedding_dim": self.embedding_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LabelSpace":
        """The space a JSON object declares; a missing key reads as null.
        Errors name the key and, in a notion, the notion's position."""
        if not isinstance(d, dict):
            raise ConfigurationError(f"label space: expected an object, got {d!r}")
        notions = d.get("notions")
        if not isinstance(notions, list):
            raise ConfigurationError(
                f"label space key 'notions': expected a list, got {notions!r}")
        for i, n in enumerate(notions):
            if not isinstance(n, dict):
                raise ConfigurationError(f"label space key 'notions' entry {i}: "
                                         f"expected an object, got {n!r}")
        return cls([(n.get("name"), n.get("tags")) for n in notions],
                   d.get("embedding_dim"))
