"""Finite alphabets with interned symbols and keyed product structure.

Symbols are plain ints in ``range(len(alphabet))``.  A product alphabet over
keyed factors encodes a tuple of factor symbols into a single int via mixed
radix (first factor most significant), so symbol comparison stays O(1) no
matter how many factors there are.  Large products are never materialized:
encoding, decoding and display names are all computed arithmetically.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence


class AlphabetError(ValueError):
    pass


class Alphabet:
    """A nonempty ordered finite set of symbols.

    Base alphabets are built from display names.  Product alphabets are built
    with :func:`product_alphabet` and carry ``keys``/``factors``, so a symbol
    can be read per factor (:meth:`digit`, :meth:`key_pos`).
    """

    __slots__ = ("_names", "_index", "keys", "factors", "_strides", "_size")

    def __init__(self, names: Sequence[str]):
        if len(names) == 0:
            raise AlphabetError("alphabet must be nonempty")
        if len(set(names)) != len(names):
            raise AlphabetError("duplicate symbol names: %r" % (names,))
        for n in names:
            if not n or any(ch.isspace() for ch in n):
                raise AlphabetError("bad symbol name %r" % (n,))
        self._names: tuple[str, ...] | None = tuple(names)
        self._index = {n: i for i, n in enumerate(names)}
        self.keys: tuple[Hashable, ...] | None = None
        self.factors: tuple[Alphabet, ...] | None = None
        self._strides: tuple[int, ...] | None = None
        self._size = len(names)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._size))

    def __contains__(self, sym: int) -> bool:
        return 0 <= sym < self._size

    def check_word(self, word: Sequence[int]) -> None:
        """Raise ``AlphabetError`` if a symbol of ``word`` is outside."""
        if word and (min(word) < 0 or max(word) >= self._size):
            raise AlphabetError("word has a symbol outside the alphabet")

    def name(self, sym: int) -> str:
        if not 0 <= sym < self._size:
            raise AlphabetError("symbol %d out of range" % sym)
        if self._names is not None:
            return self._names[sym]
        assert self.factors is not None
        parts = [f.name(d) for f, d in zip(self.factors, self.digits(sym))]
        return "(%s)" % ",".join(parts)

    def symbol(self, name: str) -> int:
        """Inverse of :meth:`name`."""
        if self._names is not None:
            try:
                return self._index[name]
            except KeyError:
                raise AlphabetError("unknown symbol %r" % name) from None
        assert self.factors is not None
        if not (name.startswith("(") and name.endswith(")")):
            raise AlphabetError("unknown tuple symbol %r" % name)
        parts = _split_tuple_name(name[1:-1])
        if len(parts) != len(self.factors):
            raise AlphabetError("arity mismatch in %r" % name)
        return self.encode(tuple(f.symbol(p) for f, p in zip(self.factors, parts)))

    def names(self) -> list[str]:
        return [self.name(s) for s in self]

    # -- product structure ------------------------------------------------

    @property
    def is_product(self) -> bool:
        return self.factors is not None

    def digits(self, sym: int) -> tuple[int, ...]:
        """Per-factor symbols of a product symbol."""
        assert self._strides is not None and self.factors is not None
        return tuple(
            (sym // stride) % len(f) for stride, f in zip(self._strides, self.factors)
        )

    def digit(self, sym: int, pos: int) -> int:
        assert self._strides is not None and self.factors is not None
        return (sym // self._strides[pos]) % len(self.factors[pos])

    def encode(self, digits: Sequence[int]) -> int:
        assert self._strides is not None and self.factors is not None
        if len(digits) != len(self.factors):
            raise AlphabetError("arity mismatch")
        sym = 0
        for d, stride, f in zip(digits, self._strides, self.factors):
            if not 0 <= d < len(f):
                raise AlphabetError("factor symbol %d out of range" % d)
            sym += d * stride
        return sym

    def key_pos(self, key: Hashable) -> int:
        assert self.keys is not None
        return self.keys.index(key)

    def __repr__(self) -> str:
        if self._size <= 8:
            return "Alphabet[%s]" % ",".join(self.names())
        return "Alphabet(size=%d)" % self._size


def product_alphabet(factors: Iterable[tuple[Hashable, Alphabet]]) -> Alphabet:
    """Product of keyed factor alphabets, in the given (declared) order."""
    items = list(factors)
    if not items:
        raise AlphabetError("product over empty factor list")
    keys = tuple(k for k, _ in items)
    if len(set(keys)) != len(keys):
        raise AlphabetError("duplicate factor keys")
    facs = tuple(a for _, a in items)
    # first factor most significant
    stride = 1
    rev = []
    for a in reversed(facs):
        rev.append(stride)
        stride *= len(a)
    size = stride
    obj = Alphabet.__new__(Alphabet)
    obj._names = None
    obj._index = {}
    obj.keys = keys
    obj.factors = facs
    obj._strides = tuple(reversed(rev))
    obj._size = size
    return obj


def _split_tuple_name(body: str) -> list[str]:
    """Split "a,(b,c),d" at depth-0 commas."""
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts
