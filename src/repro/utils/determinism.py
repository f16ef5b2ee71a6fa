"""Deterministic pseudo-random helpers.

Every source of variability in the reproduction — per-thread-block execution
time jitter, random workload composition — must be reproducible from an
explicit seed so that tests, examples and benchmarks give the same answer on
every run.  Python's built-in ``hash`` is salted per process, so we use a
small, stable 64-bit mixing function instead (SplitMix64).
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

_MASK64 = (1 << 64) - 1

Hashable = Union[int, str, float, bytes]


def _splitmix64(value: int) -> int:
    """One round of the SplitMix64 mixing function."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold(value: Hashable) -> int:
    """Fold an arbitrary hashable input into a 64-bit integer, stably."""
    if isinstance(value, bool):  # bool is an int subclass; keep it distinct
        return int(value) + 0x9E37
    if isinstance(value, int):
        return value & _MASK64
    if isinstance(value, float):
        return hash_bytes(repr(value).encode("utf-8"))
    if isinstance(value, str):
        return hash_bytes(value.encode("utf-8"))
    if isinstance(value, bytes):
        return hash_bytes(value)
    raise TypeError(f"unsupported key component type: {type(value)!r}")


def hash_bytes(data: bytes) -> int:
    """A stable 64-bit FNV-1a hash of a byte string."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & _MASK64
    return value


def stable_hash(*components: Hashable) -> int:
    """Mix an arbitrary tuple of components into a stable 64-bit value."""
    state = 0x853C49E6748FEA9B
    for component in components:
        state = _splitmix64(state ^ _fold(component))
    return state


def hash_uniform(*components: Hashable) -> float:
    """Return a deterministic uniform sample in ``[0, 1)`` for the key."""
    return stable_hash(*components) / float(1 << 64)


class DeterministicJitter:
    """Deterministic multiplicative jitter around 1.0.

    ``factor(key...)`` returns a value in ``[1 - spread, 1 + spread]`` with
    mean 1.0, derived only from the seed and the key components.  It is used
    to give individual thread blocks of a kernel slightly different execution
    times, which the draining preemption mechanism is sensitive to
    (paper Sec. 4.3).
    """

    def __init__(self, seed: int, spread: float):
        if spread < 0 or spread >= 1:
            raise ValueError("spread must be in [0, 1)")
        self._seed = seed
        self._spread = spread

    @property
    def spread(self) -> float:
        """Half-width of the jitter interval around 1.0."""
        return self._spread

    def factor(self, *key: Hashable) -> float:
        """Multiplicative factor in ``[1-spread, 1+spread]`` for ``key``."""
        if self._spread == 0.0:
            return 1.0
        u = hash_uniform(self._seed, *key)
        return 1.0 + self._spread * (2.0 * u - 1.0)

    def scaled(self, base: float, *key: Hashable) -> float:
        """Apply the jitter factor for ``key`` to ``base``."""
        return base * self.factor(*key)

    def keyed(self, *prefix: Hashable) -> "KeyedJitter":
        """Bind the leading key components once (see :class:`KeyedJitter`)."""
        return KeyedJitter(self._seed, self._spread, prefix)


class KeyedJitter:
    """:class:`DeterministicJitter` with a fixed key prefix folded in once.

    ``DeterministicJitter(seed, spread).keyed(*prefix).factor(index)`` equals
    ``DeterministicJitter(seed, spread).factor(*prefix, index)`` bit for bit,
    but a draw costs one SplitMix64 round instead of re-folding the prefix
    (the per-block draw of a kernel launch would otherwise re-hash the
    kernel-name string through the pure-Python FNV loop every time).
    """

    __slots__ = ("_spread", "_state")

    def __init__(self, seed: int, spread: float, prefix: Tuple[Hashable, ...]):
        self._spread = spread
        #: The :func:`stable_hash` state after folding ``(seed, *prefix)``.
        self._state = stable_hash(seed, *prefix)

    def factor(self, index: int) -> float:
        """Multiplicative factor in ``[1-spread, 1+spread]`` for ``index``."""
        if self._spread == 0.0:
            return 1.0
        u = _splitmix64(self._state ^ (index & _MASK64)) / float(1 << 64)
        return 1.0 + self._spread * (2.0 * u - 1.0)


def weighted_choice(weights: Iterable[float], u: float) -> int:
    """Pick an index from ``weights`` proportionally, using uniform ``u``.

    Utility for seeded categorical draws (workload composition).
    """
    weights = list(weights)
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    if not 0.0 <= u < 1.0:
        raise ValueError("u must be in [0, 1)")
    threshold = u * total
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if threshold < acc:
            return index
    return len(weights) - 1
