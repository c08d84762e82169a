import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vilwav import config
from vilwav.config import InputError, SizeCapError
from vilwav.group import char_kernel_apply, digit_table, is_prime, unit_roots
from vilwav.refinable import SpectrumTable, StepFunction, embed, translate_dilate

PRIMES = [2, 3, 5, 7]

small_p = st.sampled_from([2, 3, 5])


def kernel(p, w):
    """The pairing matrix K[alpha, a] = omega^<alpha, a> over a width-w window."""
    return np.stack([char_kernel_apply(e, p, w, +1) for e in np.eye(p**w)], axis=1)


def digit_sum(p, w, i, k):
    """Canonical index of the digit-wise mod-p sum of indices i and k."""
    digits = digit_table(p, w)
    return int(((digits[i] + digits[k]) % p) @ p ** np.arange(w))


def indices(n, w=3):
    """Strategy: (p, n indices) into a width-w table."""
    return small_p.flatmap(lambda p: st.tuples(st.just(p), *[st.integers(0, p**w - 1)] * n))


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)


def test_digit_table_little_endian():
    t = digit_table(3, 2)
    assert t.shape == (9, 2)
    # index 5 = 2 + 1*3 -> digits (2, 1), least significant first
    assert list(t[5]) == [2, 1]


def test_index_example_p3():
    # (a_-1, a_0) = (2, 1) on window [-1, 1) has canonical index 2 + 1*3 = 5
    assert int(digit_table(3, 2)[5] @ 3 ** np.arange(2)) == 5


def test_index_zero_is_zero_vector():
    assert not digit_table(5, 3)[0].any()


def test_index_roundtrip_exhaustive_p5():
    for w in (1, 2, 3):
        assert np.array_equal(digit_table(5, w) @ 5 ** np.arange(w), np.arange(5**w))


def test_digit_outside_window_is_zero():
    # embedding f on [0, 1) into [-1, 1): cells with a nonzero digit at -1 vanish
    f = StepFunction(3, 0, 1, np.array([1.0, 2.0, 3.0]))
    wide = embed(f, -1, 1)
    assert np.all(wide[digit_table(3, 2)[:, 0] != 0] == 0.0)


def test_in_level_point_vs_character():
    # window [-2, 1): a point in G_0 has zero digits at -2, -1 (index % 9 == 0);
    # a character annihilating G_0 has zero digit at 0 (index < 9); they pair to 1
    p, w = 3, 3
    K = kernel(p, w)
    points = np.arange(p**w) % p**2 == 0
    chars = np.arange(p**w) < p**2
    assert np.abs(K[np.ix_(chars, points)] - 1.0).max() < 1e-12
    # outside the annihilator some point of G_0 pairs to a nontrivial root
    assert np.abs(K[np.ix_(~chars, points)] - 1.0).max(axis=1).min() > 0.5


def test_widen_narrow_roundtrip():
    f = StepFunction(3, -1, 1, np.arange(9, dtype=complex))
    wide = embed(f, -3, 2)  # two digits below the support, one above the resolution
    cells = wide.reshape(3, 9, 9)  # [a_1, (a_-1, a_0), (a_-3, a_-2)]
    assert np.array_equal(cells[:, :, 0], np.tile(f.values, (3, 1)))
    assert not cells[:, :, 1:].any()
    with pytest.raises(ValueError, match="window"):
        embed(f, 0, 2)  # cannot shrink


def test_pair_rademacher_values():
    # the position-n basis character against the position-n generator
    for p in PRIMES:
        omega = np.exp(2j * np.pi / p)
        assert np.abs(kernel(p, 1)[1] - omega ** np.arange(p)).max() < 1e-14


@given(indices(3))
def test_pair_multiplicative_in_chi(args):
    p, chi1, chi2, x = args
    K = kernel(p, 3)
    assert K[digit_sum(p, 3, chi1, chi2), x] == pytest.approx(K[chi1, x] * K[chi2, x], abs=1e-12)


@given(indices(3))
def test_pair_multiplicative_in_x(args):
    p, chi, x, y = args
    K = kernel(p, 3)
    assert K[chi, digit_sum(p, 3, x, y)] == pytest.approx(K[chi, x] * K[chi, y], abs=1e-12)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pair_dilation_adjoint_exhaustive(p):
    # (chi A, x) = (chi, A x) over a width-3 window: A moves character digits
    # up a slot (index * p) and point digits down a slot (index // p)
    K = kernel(p, 3)
    chi = np.arange(p**2)  # top digit zero, so chi A stays in the window
    x = np.arange(0, p**3, p)  # bottom digit zero, so A x stays in the window
    assert np.abs(K[np.ix_(chi * p, x)] - K[np.ix_(chi, x // p)]).max() < 1e-12


shifts2 = small_p.flatmap(
    lambda p: st.tuples(st.just(p), *[st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))] * 3)
)


@given(shifts2)
def test_add_group_laws(args):
    # lattice translates compose by digit-wise addition mod p, with no carries
    p, h, g, k = args
    f = StepFunction(p, -1, 1, np.arange(p * p, dtype=complex) + 1)

    def cells(fn):
        return embed(fn, -2, 1)

    def plus(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(a):
        return tuple((-x) % p for x in a)

    T = translate_dilate
    assert np.array_equal(cells(T(T(f, 0, h), 0, g)), cells(T(f, 0, plus(h, g))))
    assert np.array_equal(cells(T(T(f, 0, h), 0, g)), cells(T(T(f, 0, g), 0, h)))
    assert np.array_equal(cells(T(T(T(f, 0, h), 0, g), 0, k)), cells(T(f, 0, plus(h, plus(g, k)))))
    assert np.array_equal(cells(T(T(f, 0, h), 0, neg(h))), cells(f))
    # additive order divides p
    acc = f
    for _ in range(p):
        acc = T(acc, 0, h)
    assert np.array_equal(cells(acc), cells(f))


def test_dilate_moves_digits():
    f = StepFunction(5, -1, 1, np.arange(25, dtype=complex))
    g = translate_dilate(f, 1)
    # x -> f(A x) is supported on G_0 and constant on G_2 cells, same table
    assert (g.support_level, g.resolution_level) == (0, 2)
    assert np.abs(g.values - f.values * np.sqrt(5)).max() < 1e-12
    back = translate_dilate(translate_dilate(f, 4), -4)
    assert (back.support_level, back.resolution_level) == (-1, 1)
    assert np.abs(back.values - f.values).max() < 1e-12


@pytest.mark.parametrize("p,w", [(2, 3), (3, 2), (5, 2)])
def test_character_matrix_unitary(p, w):
    mat = kernel(p, w)
    assert np.abs(mat @ mat.conj().T / p**w - np.eye(p**w)).max() < 1e-12


def test_char_kernel_inverse(rng):
    p, w = 3, 3
    v = rng.normal(size=p**w) + 1j * rng.normal(size=p**w)
    back = char_kernel_apply(char_kernel_apply(v, p, w, -1), p, w, +1) / p**w
    assert np.abs(back - v).max() < 1e-12


def test_char_kernel_batches_trailing_axes(rng):
    p, w = 3, 2
    v = rng.normal(size=(p**w, 2, 4)) + 1j * rng.normal(size=(p**w, 2, 4))
    out = char_kernel_apply(v, p, w, -1)
    assert out.shape == v.shape
    for i in range(2):
        for j in range(4):
            assert np.abs(out[:, i, j] - char_kernel_apply(v[:, i, j], p, w, -1)).max() < 1e-14


def test_char_kernel_constant_gives_exact_delta():
    # a constant table must transform to an exactly-zero tail, not ~1e-16 noise
    out = char_kernel_apply(np.ones(27), 3, 3, +1)
    assert out[0] == 27.0
    assert np.all(out[1:] == 0.0)


def test_char_kernel_shape_check():
    with pytest.raises(ValueError):
        char_kernel_apply(np.ones(5), 3, 2, +1)


def test_integrate_constant_over_g_minus1():
    # |1|^2 on the 9 cells of G_1 inside G_-1 integrates to mu(G_-1) = 3
    assert StepFunction(3, -1, 1, np.ones(9)).norm2() == pytest.approx(3.0)


def test_integrate_zero():
    assert StepFunction(2, 0, 2, np.zeros(4)).norm2() == 0.0


def test_integrate_character_side():
    # p unit entries on cosets of nu-measure 1/p sum to 1
    vals = np.zeros(9)
    vals[[0, 1, 5]] = 1.0
    assert SpectrumTable(3, 1, np.arange(9), vals).norm2() == pytest.approx(1.0)


def test_unit_roots_sum_to_zero():
    for p in PRIMES:
        assert abs(unit_roots(p).sum()) < 1e-13


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv("VILWAV_SIZE_CAP", "100")
    with pytest.raises(SizeCapError):
        digit_table(5, 11)


def test_size_cap_is_parsed_once_per_setting_and_follows_every_change(monkeypatch):
    config._parse_cap.cache_clear()
    monkeypatch.setenv("VILWAV_SIZE_CAP", "100")
    assert [config.size_cap() for _ in range(3)] == [100] * 3
    assert config._parse_cap.cache_info().misses == 1
    monkeypatch.setenv("VILWAV_SIZE_CAP", "200")
    assert config.size_cap() == 200
    monkeypatch.setenv("VILWAV_SIZE_CAP", "abc")
    for _ in range(2):  # a malformed setting is refused every time it is read
        with pytest.raises(InputError, match="VILWAV_SIZE_CAP='abc'"):
            config.size_cap()
    monkeypatch.delenv("VILWAV_SIZE_CAP")
    assert config.size_cap() == config.DEFAULT_SIZE_CAP

