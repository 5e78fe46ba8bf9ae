"""Vector algebra tests.

The convolution/correlation oracle is a direct evaluation of the defining
sums with explicit modular indexing, kept separate from the FFT kernels.
The cleanup oracle, ``reference_cleanup``, is the term-by-term similarity
scan that the stacked-matrix cleanup must reproduce exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holoscene import hrr
from holoscene.errors import (
    DimensionError,
    EmptyCodebookError,
    UnknownTermError,
    ZeroVectorError,
)


def direct_convolve(x, y):
    n = len(x)
    return np.array([sum(x[k] * y[(j - k) % n] for k in range(n)) for j in range(n)])


def direct_correlate(x, z):
    n = len(x)
    return np.array([sum(x[k] * z[(k + j) % n] for k in range(n)) for j in range(n)])


def unit(v):
    return v / np.linalg.norm(v)


def reference_cleanup(v, book):
    """Scan every codebook entry with ``similarity``; the first strict
    maximum in sorted-term order wins."""
    if len(book) == 0:
        raise EmptyCodebookError("cleanup against an empty codebook")
    v = hrr._as_vector(v, "probe")
    if v.shape[0] != book.dim:
        raise DimensionError(f"dimension mismatch: probe {v.shape[0]} vs codebook {book.dim}")
    best_term = None
    best_sim = -2.0
    for term in book.terms:  # sorted; strict > keeps the first of any tie
        sim = hrr.similarity(v, book.vector(term))
        if sim > best_sim:
            best_term, best_sim = term, sim
    return best_term, best_sim


@st.composite
def cleanup_case(draw):
    """A codebook and a probe: Gaussian noise, the sum of two unit entries
    (a near-tie), a scaled or negated entry, or an unbinding decode. At dim
    1 every cosine is exactly +1 or -1, so every entry ties with others."""
    dim = draw(st.sampled_from([1, 8, 512]))
    size = draw(st.integers(1, 300))
    book = hrr.Codebook([f"c{i:03d}" for i in range(size)], dim=dim, seed=draw(st.integers(0, 999)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entry():
        return book.vector(book.terms[draw(st.integers(0, size - 1))])

    kind = draw(st.sampled_from(["gaussian", "near-tie", "scaled", "negated", "decode"]))
    if kind == "gaussian":
        probe = rng.standard_normal(dim)
    elif kind == "near-tie":
        probe = unit(entry()) + unit(entry())
    elif kind == "scaled":
        probe = entry() * draw(st.sampled_from([1e-150, 1e-8, 0.5, 3.0, 1e8, 1e150]))
    elif kind == "negated":
        probe = -entry()
    else:
        x, y = entry(), entry()
        probe = hrr.correlate(x, hrr.convolve(x, y))
    return book, probe


class TestRandomVector:
    def test_deterministic(self):
        a = hrr.random_vector(7, 512)
        b = hrr.random_vector(7, 512)
        assert a.tobytes() == b.tobytes()

    def test_norm_near_one(self):
        v = hrr.random_vector(7, 512)
        assert 0.8 <= np.linalg.norm(v) <= 1.2

    def test_norm_spread_over_seeds(self, frozen_bounds):
        norms = [float(np.linalg.norm(hrr.random_vector(s, 512))) for s in range(1000)]
        assert min(norms) >= 0.8 and max(norms) <= 1.2
        assert min(norms) == pytest.approx(frozen_bounds["random_vector_norms"]["min"], abs=1e-9)

    def test_dim_one(self):
        v = hrr.random_vector(3, 1)
        assert v.shape == (1,)
        # variance target 1 at dim 1: entries are plain standard normals
        samples = np.array([hrr.random_vector(s, 1)[0] for s in range(2000)])
        assert abs(samples.var() - 1.0) < 0.15

    def test_zero_dim_rejected(self):
        with pytest.raises(DimensionError):
            hrr.random_vector(1, 0)

    def test_term_changes_stream(self):
        a = hrr.random_vector(7, 64, term="woman")
        b = hrr.random_vector(7, 64, term="beach")
        assert abs(hrr.similarity(a, b)) < 0.5


class TestConvolve:
    def test_hand_example(self):
        z = hrr.convolve([1.0, 2.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(z, [0.0, 1.0, 2.0, 0.0], atol=1e-12)

    def test_delta_is_identity(self):
        y = hrr.random_vector(11, 64)
        impulse = np.zeros(64)
        impulse[0] = 1.0
        np.testing.assert_allclose(hrr.convolve(impulse, y), y, atol=1e-9)

    @pytest.mark.parametrize("dim", [4, 8, 512])
    def test_matches_direct_sum(self, dim):
        x = hrr.random_vector(1, dim, term="x")
        y = hrr.random_vector(2, dim, term="y")
        np.testing.assert_allclose(hrr.convolve(x, y), direct_convolve(x, y), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hrr.convolve(hrr.random_vector(1, 8), hrr.random_vector(1, 4))

    @pytest.mark.parametrize("dim", [4, 8, 64])
    def test_commutative_associative_distributive(self, dim):
        a = hrr.random_vector(5, dim, term="a")
        b = hrr.random_vector(5, dim, term="b")
        c = hrr.random_vector(5, dim, term="c")
        np.testing.assert_allclose(hrr.convolve(a, b), hrr.convolve(b, a), atol=1e-9)
        np.testing.assert_allclose(
            hrr.convolve(hrr.convolve(a, b), c), hrr.convolve(a, hrr.convolve(b, c)), atol=1e-9
        )
        np.testing.assert_allclose(
            hrr.convolve(a, hrr.superpose([b, c])),
            hrr.superpose([hrr.convolve(a, b), hrr.convolve(a, c)]),
            atol=1e-9,
        )


class TestCorrelate:
    def test_hand_example(self):
        y = hrr.correlate([0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0])
        np.testing.assert_allclose(y, [1.0, 2.0, 0.0, 0.0], atol=1e-12)

    def test_delta_left_identity(self):
        z = hrr.random_vector(9, 64)
        impulse = np.zeros(64)
        impulse[0] = 1.0
        np.testing.assert_allclose(hrr.correlate(impulse, z), z, atol=1e-9)

    @pytest.mark.parametrize("dim", [4, 8, 512])
    def test_matches_direct_sum(self, dim):
        x = hrr.random_vector(3, dim, term="x")
        z = hrr.random_vector(4, dim, term="z")
        np.testing.assert_allclose(hrr.correlate(x, z), direct_correlate(x, z), atol=1e-9)

    def test_approximately_inverts_convolve(self, frozen_bounds):
        sims = []
        for seed in range(1000):
            x = unit(hrr.random_vector(seed, 512, term="x"))
            y = unit(hrr.random_vector(seed, 512, term="y"))
            sims.append(hrr.similarity(hrr.correlate(x, hrr.convolve(x, y)), y))
        mean = sum(sims) / len(sims)
        assert mean > 0.7
        assert mean == pytest.approx(frozen_bounds["unbind_cosine"]["mean"], abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hrr.correlate(hrr.random_vector(1, 8), hrr.random_vector(1, 16))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dim=st.integers(1, 128), seed=st.integers(0, 2**32 - 1))
@example(dim=1, seed=0)
@example(dim=3, seed=0)
@example(dim=7, seed=0)
@example(dim=97, seed=0)
@example(dim=127, seed=0)
def test_fft_matches_direct_sums_at_every_dim(dim, seed):
    # odd dims need irfft(..., n=n): rfft keeps n // 2 + 1 terms either way
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(dim), rng.standard_normal(dim)
    np.testing.assert_allclose(hrr.convolve(x, y), direct_convolve(x, y), rtol=0, atol=1e-9)
    np.testing.assert_allclose(hrr.correlate(x, y), direct_correlate(x, y), rtol=0, atol=1e-9)


class TestSuperpose:
    def test_single(self):
        v = hrr.random_vector(2, 32)
        np.testing.assert_array_equal(hrr.superpose([v]), v)

    def test_additive_inverse(self):
        v = hrr.random_vector(2, 32)
        np.testing.assert_allclose(hrr.superpose([v, -v]), np.zeros(32), atol=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hrr.superpose([])

    def test_members_stay_similar(self, frozen_bounds):
        worst = 2.0
        for seed in range(1000):
            vs = [hrr.random_vector(seed, 512, term=f"m{i}") for i in range(3)]
            s = hrr.superpose(vs)
            worst = min(worst, min(hrr.similarity(s, v) for v in vs))
        assert worst > 0.4
        assert worst == pytest.approx(frozen_bounds["superpose3"]["min"], abs=1e-9)


class TestSimilarity:
    def test_self(self):
        v = hrr.random_vector(1, 16)
        assert hrr.similarity(v, v) == pytest.approx(1.0)

    def test_negation(self):
        v = hrr.random_vector(1, 16)
        assert hrr.similarity(v, -v) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            hrr.similarity(np.zeros(8), hrr.random_vector(1, 8))

    def test_independent_vectors_near_orthogonal(self, frozen_bounds):
        inside = 0
        for seed in range(1000):
            a = hrr.random_vector(seed, 512, term="a")
            b = hrr.random_vector(seed, 512, term="b")
            inside += abs(hrr.similarity(a, b)) < 0.2
        assert inside / 1000 > 0.99
        assert inside / 1000 == frozen_bounds["independent_pairs"]["fraction_below_0.2"]


class TestCodebook:
    def test_regeneration_is_order_independent(self):
        a = hrr.Codebook(["woman", "wear", "clothing"], dim=64, seed=7)
        b = hrr.Codebook(["clothing", "woman", "wear"], dim=64, seed=7)
        for term in a.terms:
            assert a.vector(term).tobytes() == b.vector(term).tobytes()

    def test_unknown_term(self):
        book = hrr.Codebook(["a"], dim=8, seed=1)
        with pytest.raises(UnknownTermError):
            book.vector("b")

    def test_vectors_are_the_regenerated_vectors_and_read_only(self):
        book = hrr.Codebook(["woman", "wear", "clothing"], dim=64, seed=7)
        for term in book.terms:
            v = book.vector(term)
            assert v.tobytes() == hrr.random_vector(7, 64, term=term).tobytes()
            with pytest.raises(ValueError):
                v[0] = 1.0

    @pytest.mark.parametrize("dim", [1, 3, 512])
    def test_every_row_is_its_random_vector_exactly(self, dim):
        # rows are drawn in place and scaled together, bit for bit as one by one
        book = hrr.Codebook([f"t{i:03d}" for i in range(638)], dim=dim, seed=11)
        want = np.array([hrr.random_vector(11, dim, term=term) for term in book.terms])
        assert book._rows.tobytes() == want.tobytes()


class TestCleanup:
    def test_exact_entry(self):
        book = hrr.Codebook(["clothing", "woman", "wear"], dim=64, seed=3)
        term, sim = hrr.cleanup(book.vector("clothing"), book)
        assert term == "clothing"
        assert sim == pytest.approx(1.0)

    def test_paper_style_unbinding(self):
        vocab = ["woman", "wear", "clothing"] + [f"d{i:02d}" for i in range(17)]
        book = hrr.Codebook(vocab, dim=512, seed=0)
        trace = hrr.convolve(
            hrr.convolve(book.vector("woman"), book.vector("wear")), book.vector("clothing")
        )
        probe = hrr.convolve(book.vector("woman"), book.vector("wear"))
        term, sim = hrr.cleanup(hrr.correlate(probe, trace), book)
        assert term == "clothing"
        assert sim > 0.2

    def test_tie_breaks_lexicographically(self):
        book = hrr.Codebook(["alpha", "beta"], dim=8, seed=1)
        probe = unit(book.vector("alpha")) + unit(book.vector("beta"))
        term, _ = hrr.cleanup(probe, book)
        assert term == "alpha"

    def test_empty_codebook(self):
        book = hrr.Codebook([], dim=8, seed=1)
        with pytest.raises(EmptyCodebookError):
            hrr.cleanup(np.ones(8), book)

    def test_zero_probe_rejected(self):
        book = hrr.Codebook(["a", "b"], dim=8, seed=1)
        with pytest.raises(ZeroVectorError):
            hrr.cleanup(np.zeros(8), book)

    def test_zero_entry_rejected(self, monkeypatch):
        class Zeros:  # a generator whose every draw is 0
            def standard_normal(self, size=None, out=None):
                return np.zeros(size) if out is None else out.fill(0.0)

        monkeypatch.setattr(hrr, "_seed_for", lambda seed, dim, term=None: Zeros())
        book = hrr.Codebook(["a", "b"], dim=8, seed=1)
        with pytest.raises(ZeroVectorError):
            hrr.cleanup(np.ones(8), book)

    def test_malformed_probes_rejected(self):
        book = hrr.Codebook(["a", "b"], dim=8, seed=1)
        with pytest.raises(DimensionError):
            hrr.cleanup(np.ones(4), book)
        with pytest.raises(ValueError):
            hrr.cleanup(np.full(8, np.nan), book)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cleanup_case())
    def test_matches_reference_scan_exactly(self, case):
        book, probe = case
        try:
            expected = reference_cleanup(probe, book)
        except ZeroVectorError:  # e.g. two opposite entries summed at dim 1
            with pytest.raises(ZeroVectorError):
                hrr.cleanup(probe, book)
            return
        term, sim = hrr.cleanup(probe, book)
        assert term == expected[0]
        assert sim == expected[1]
        assert sim.hex() == expected[1].hex()  # the sign of a zero too

    def test_overflowing_probe_matches_reference_scan(self):
        # some products overflow to inf / inf = nan; every entry is rescored
        book = hrr.Codebook([f"c{i:03d}" for i in range(300)], dim=512, seed=3)
        probe = np.full(512, 1e308)
        with np.errstate(all="ignore"):
            assert np.isnan(book._rows @ probe / np.inf).any()
            term, sim = hrr.cleanup(probe, book)
            expected = reference_cleanup(probe, book)
        assert (term, sim.hex()) == (expected[0], expected[1].hex())

    def test_bulk_accuracy(self, frozen_bounds):
        book = hrr.Codebook([f"t{i:03d}" for i in range(100)], dim=512, seed=2024)
        rng = np.random.default_rng(2024)
        hit = 0
        for _ in range(1000):
            xi, yi = rng.choice(100, size=2, replace=False)
            x, y = book.terms[xi], book.terms[yi]
            trace = hrr.convolve(book.vector(x), book.vector(y))
            got, _ = hrr.cleanup(hrr.correlate(book.vector(x), trace), book)
            hit += got == y
        assert hit / 1000 > 0.99
        assert hit / 1000 == frozen_bounds["cleanup_100"]["accuracy"]
