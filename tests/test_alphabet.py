import pytest

from mmnlearn.alphabet import (
    Alphabet,
    AlphabetError,
    product_alphabet,
)


def test_base_alphabet_roundtrip():
    a = Alphabet(["x", "y", "z"])
    assert len(a) == 3
    assert [a.name(s) for s in a] == ["x", "y", "z"]
    assert a.symbol("y") == 1
    with pytest.raises(AlphabetError):
        a.symbol("w")


def test_rejects_bad_names():
    with pytest.raises(AlphabetError):
        Alphabet([])
    with pytest.raises(AlphabetError):
        Alphabet(["a", "a"])
    with pytest.raises(AlphabetError):
        Alphabet(["a b"])


def test_product_encode_decode():
    p = product_alphabet([("e1", Alphabet(["a", "b"])), ("e2", Alphabet(["c", "d", "e"]))])
    assert len(p) == 6
    # first factor most significant
    assert p.encode((0, 0)) == 0
    assert p.encode((1, 2)) == 5
    assert p.digits(5) == (1, 2)
    assert p.name(3) == "(b,c)"
    assert p.symbol("(b,c)") == 3


def test_nested_product_names():
    inner = product_alphabet([("x", Alphabet(["a", "b"])), ("y", Alphabet(["1", "2"]))])
    outer = product_alphabet([("p", inner), ("q", Alphabet(["z"]))])
    name = outer.name(outer.encode((inner.symbol("(b,1)"), 0)))
    assert name == "((b,1),z)"
    assert outer.symbol(name) == outer.encode((2, 0))


def test_check_word_rejects_foreign_symbols():
    a = Alphabet(["x", "y"])
    a.check_word(())
    a.check_word((0, 1, 1))
    for bad in ((2,), (0, -1), (1, 0, 5)):
        with pytest.raises(AlphabetError):
            a.check_word(bad)
    p = product_alphabet([("e1", Alphabet(["a", "b"])), ("e2", Alphabet(["c", "d", "e"]))])
    p.check_word((5, 0))
    with pytest.raises(AlphabetError):
        p.check_word((6,))


def test_product_rejects_empty_and_duplicate_keys():
    a = Alphabet(["a"])
    with pytest.raises(AlphabetError):
        product_alphabet([])
    with pytest.raises(AlphabetError):
        product_alphabet([("k", a), ("k", a)])


def test_product_rejects_malformed_symbols():
    p = product_alphabet([("e1", Alphabet(["a", "b"])), ("e2", Alphabet(["c", "d", "e"]))])
    for bad in ("b,c", "(b)", "(b,c,c)", "(b,q)", "(q,c)"):
        with pytest.raises(AlphabetError):
            p.symbol(bad)
    for digits in ((0,), (2, 0), (0, 3)):
        with pytest.raises(AlphabetError):
            p.encode(digits)
    for sym in (-1, 6):
        with pytest.raises(AlphabetError):
            p.name(sym)


def test_digit_and_key_pos_read_one_factor():
    p = product_alphabet([("e1", Alphabet(["a", "b"])), ("e2", Alphabet(["c", "d", "e"]))])
    assert (p.key_pos("e1"), p.key_pos("e2")) == (0, 1)
    for sym in p:
        assert tuple(p.digit(sym, pos) for pos in range(2)) == p.digits(sym)


def test_large_product_is_not_materialized():
    factors = [(k, Alphabet(["s%d" % j for j in range(5)])) for k in range(20)]
    p = product_alphabet(factors)
    assert len(p) == 5**20
    sym = p.encode((4,) * 20)
    assert p.digits(sym) == (4,) * 20

