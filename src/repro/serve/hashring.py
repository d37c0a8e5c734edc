"""Consistent hashing of the key space across shard workers.

A streaming server routes every element to the shard owning its key, and
that ownership must be *stable*: across server restarts (checkpointed
partitions must land back on the shard that wrote them), across processes
(the routing table is consulted in the server, the partitions live in the
workers), and — the property plain ``hash(key) % N`` lacks — across
*resizes*: adding or removing one shard must remap only the keys that shard
owned, not reshuffle the world.  The classic fix is a hash ring: each shard
projects :data:`REPLICAS` virtual points onto a circle, a key belongs to the
first point clockwise from its own hash.

Three deliberate choices:

* Hashing is :func:`stable_key_hash` — BLAKE2b over the ``repr`` of a
  *canonical* form of the key.  Python's builtin ``hash`` is salted per
  process (PYTHONHASHSEED), which would silently scatter a restarted
  server's keys across the wrong shards' checkpoints.  The canonical form
  makes the hash agree with ``==``: ``3``, ``3.0``, ``Fraction(3)`` and
  ``(True,)``/``(1,)`` are one key to a worker's partition dict, so they
  must be one key to the ring too, or their partitions split across shards
  and the merge keeps only one of them.
* :data:`REPLICAS` virtual points per shard keep the key-space split
  within a few percent of even for small shard counts.
* :meth:`HashRing.shard_for` memoizes key → shard.  A serve stream has few
  distinct keys and many elements, so after warm-up routing is one dict
  lookup instead of a BLAKE2b digest and a bisect per element.  The memo
  is only sound because equal keys hash equal (above); topology changes
  clear it, and :data:`MEMO_LIMIT` bounds it.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from fractions import Fraction
from typing import Hashable, Iterable

#: Most keys :meth:`HashRing.shard_for` remembers.  A high-cardinality key
#: space (user ids, timestamps) would otherwise grow the front process by
#: one entry per distinct key forever; past the cap the memo starts over,
#: which costs only re-hashing, never a wrong route.
MEMO_LIMIT = 1 << 16

#: Virtual points per shard on the ring.  Part of key placement: changing
#: it moves keys away from the shards whose checkpoints hold them.
REPLICAS = 64


def canonical_key(key: Hashable) -> Hashable:
    """The representative of ``key``'s ``==`` class whose ``repr`` is hashed.

    ``bool`` and integral numbers become ``int``, a non-integral ``float``
    its exact ``Fraction``, and tuples are canonicalized element-wise, so
    keys that compare equal (and hence share a ``hash`` and a partition)
    get one canonical form.  ``int`` and ``str`` keys are their own form.
    """
    kind = type(key)
    if kind is int or kind is str:
        return key
    if isinstance(key, tuple):
        return tuple(canonical_key(item) for item in key)
    if isinstance(key, int):  # bool and other int subclasses
        return int(key)
    if isinstance(key, Fraction):
        return key.numerator if key.denominator == 1 else key
    if isinstance(key, float) and math.isfinite(key):
        return int(key) if key.is_integer() else Fraction(key)
    return key


def stable_key_hash(key: Hashable) -> int:
    """A 64-bit hash of ``key`` that is identical in every process and
    agrees with ``==``: BLAKE2b over ``repr(canonical_key(key))``.

    Keys are runtime values (ints, bools, Fractions, floats, strs, tuples of
    those).  Distinct canonical forms have distinct ``repr``s
    (``repr(1) == '1'`` vs ``repr(Fraction(1, 2)) == 'Fraction(1, 2)'``).
    """
    digest = hashlib.blake2b(repr(canonical_key(key)).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _point(shard: int, replica: int) -> int:
    digest = hashlib.blake2b(f"shard:{shard}:replica:{replica}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class HashRing:
    """Map keys to shard ids with consistent hashing.

    >>> ring = HashRing(4)
    >>> ring.shard_for(("user", 17))  # deterministic, process-independent
    2
    """

    def __init__(self, shards: int | Iterable[int]):
        ids = list(range(shards)) if isinstance(shards, int) else list(shards)
        if not ids:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {ids}")
        self._shards: set[int] = set()
        self._points: list[tuple[int, int]] = []  # sorted (hash, shard)
        self._memo: dict[Hashable, int] = {}  # key -> shard, for this topology
        for shard in ids:
            self.add_shard(shard)

    @property
    def shards(self) -> list[int]:
        return sorted(self._shards)

    def add_shard(self, shard: int) -> None:
        if shard in self._shards:
            raise ValueError(f"shard {shard} already on the ring")
        self._shards.add(shard)
        self._memo.clear()
        for replica in range(REPLICAS):
            bisect.insort(self._points, (_point(shard, replica), shard))

    def remove_shard(self, shard: int) -> None:
        if shard not in self._shards:
            raise ValueError(f"shard {shard} not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.discard(shard)
        self._memo.clear()
        self._points = [p for p in self._points if p[1] != shard]

    def shard_for(self, key: Hashable) -> int:
        """The shard owning ``key``: first ring point at or clockwise from
        the key's hash (wrapping past the top of the hash space).

        Memoized per key; equal keys share a memo entry, which is sound
        because :func:`stable_key_hash` agrees with ``==``."""
        memo = self._memo
        try:
            shard = memo.get(key)  # not memo[key]: a miss would pay for a raise
        except TypeError:  # unhashable: route it uncached
            return self._locate(key)
        if shard is not None:
            return shard
        shard = self._locate(key)
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        memo[key] = shard
        return shard

    def _locate(self, key: Hashable) -> int:
        h = stable_key_hash(key)
        index = bisect.bisect_left(self._points, (h, -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def __len__(self) -> int:
        return len(self._shards)
