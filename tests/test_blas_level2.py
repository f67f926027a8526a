"""Level 2 BLAS: DGEMV and DGER (the peeling fix-up kernels)."""

import numpy as np
import pytest

from repro.blas import dgemv, dger
from repro.context import ExecutionContext
from repro.errors import ArgumentError, DimensionError
from repro.phantom import Phantom


@pytest.fixture
def setup(rng):
    a = np.asfortranarray(rng.standard_normal((7, 5)))
    x = rng.standard_normal(5)
    y = rng.standard_normal(7)
    return a, x, y


class TestDgemv:
    """The DGEMV contract; :class:`TestDgemvVendor` reruns every case on
    the vendor kernel."""

    backend = "substrate"

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 0.5),
                                            (-1.0, 1.0), (0.5, -0.25)])
    def test_notrans(self, setup, alpha, beta):
        a, x, y = setup
        expect = alpha * (a @ x) + beta * y
        dgemv(a, x, y, alpha, beta, backend=self.backend)
        np.testing.assert_allclose(y, expect)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.3, 1.7)])
    def test_trans(self, setup, alpha, beta):
        a, x, y = setup
        expect = alpha * (a.T @ y) + beta * x
        dgemv(a, y, x, alpha, beta, trans=True, backend=self.backend)
        np.testing.assert_allclose(x, expect)

    def test_beta_zero_ignores_garbage(self, setup):
        a, x, _ = setup
        y = np.full(7, np.nan)
        dgemv(a, x, y, 1.0, 0.0, backend=self.backend)
        np.testing.assert_allclose(y, a @ x)

    def test_alpha_zero(self, setup):
        a, x, y = setup
        expect = 3.0 * y
        dgemv(a, x, y, 0.0, 3.0, backend=self.backend)
        np.testing.assert_allclose(y, expect)

    def test_wrong_x_length(self, setup):
        a, _, y = setup
        with pytest.raises(DimensionError):
            dgemv(a, np.zeros(6), y, backend=self.backend)

    def test_wrong_y_length(self, setup):
        a, x, _ = setup
        with pytest.raises(DimensionError):
            dgemv(a, x, np.zeros(6), backend=self.backend)

    def test_strided_view_input(self, rng):
        big = np.asfortranarray(rng.standard_normal((10, 10)))
        a = big[1:8, 2:7]  # strided view, like a peeled block
        x = rng.standard_normal(5)
        y = np.zeros(7)
        dgemv(a, x, y, backend=self.backend)
        np.testing.assert_allclose(y, a @ x)

    def test_dry_charges(self):
        ctx = ExecutionContext(dry=True)
        dgemv(Phantom(7, 5), Phantom(5), Phantom(7), ctx=ctx,
              backend=self.backend)
        assert ctx.mul_flops == 35
        assert ctx.kernel_calls["dgemv"] == 1


class TestDgemvVendor(TestDgemv):
    backend = "vendor"


def _einsum_dgemv(a, x, y, alpha, beta, trans):
    """The substrate DGEMV body as it stood before ``backend`` existed."""
    if beta == 0.0:
        y[...] = 0.0
    elif beta != 1.0:
        y *= beta
    if alpha == 0.0:
        return
    opa = a.T if trans else a
    prod = np.einsum("ij,j->i", opa, x)
    if alpha != 1.0:
        prod *= alpha
    y += prod


class TestDgemvBackends:
    # 0.3 is inexact, so scaling before or after the sum would differ
    @pytest.mark.parametrize("dtype", ["float64", "float32", "complex128"])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.3, 0.0),
                                            (1.0, 1.0), (-1.0, 0.75),
                                            (0.3, -1.5), (0.0, 2.0)])
    def test_substrate_bits_match_einsum_formula(self, rng, dtype, trans,
                                                 alpha, beta):
        a = _layout(_operand(rng, (40, 30), dtype), "window")
        x = _operand(rng, 40 if trans else 30, dtype)
        y0 = _operand(rng, 30 if trans else 40, dtype)
        got, expect = y0.copy(), y0.copy()
        dgemv(a, x, got, alpha, beta, trans=trans)
        _einsum_dgemv(a, x, expect, alpha, beta, trans)
        assert got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32", "complex128"])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.3, 0.0),
                                            (1.0, 1.0), (0.3, -1.5)])
    def test_vendor_into_strided_row(self, rng, dtype, trans, alpha, beta):
        """The transposed fix-up writes a row of an F-ordered C: a
        strided ``y``; beta == 0 must not read its NaN garbage."""
        a = _layout(_operand(rng, (40, 30), dtype), "window")
        x = _operand(rng, 40 if trans else 30, dtype)
        c = np.asfortranarray(_operand(rng, (5, 30 if trans else 40),
                                       dtype))
        if beta == 0.0:
            c[2] = np.nan
        y = c[2, :]
        expect = alpha * ((a.T if trans else a) @ x)
        if beta != 0.0:
            expect = expect + beta * y
        before = c.copy()
        dgemv(a, x, y, alpha, beta, trans=trans, backend="vendor")
        tol = 1e-4 if dtype == "float32" else 1e-12
        np.testing.assert_allclose(y, expect, rtol=tol, atol=tol)
        np.testing.assert_array_equal(np.delete(c, 2, axis=0),
                                      np.delete(before, 2, axis=0))

    def test_dry_charges_equal(self):
        tallies = []
        for backend in ("substrate", "vendor"):
            ctx = ExecutionContext(dry=True)
            dgemv(Phantom(7, 5), Phantom(7), Phantom(5), 2.0, 0.5,
                  trans=True, ctx=ctx, backend=backend)
            tallies.append((dict(ctx.kernel_calls), ctx.mul_flops,
                            ctx.add_flops))
        assert tallies[0] == tallies[1]

    def test_unknown_backend_rejected(self, setup):
        a, x, y = setup
        before = y.copy()
        with pytest.raises(ArgumentError):
            dgemv(a, x, y, backend="cuda")
        np.testing.assert_array_equal(y, before)


class TestDger:
    @pytest.mark.parametrize("alpha", [1.0, -0.5, 2.0])
    def test_update(self, setup, alpha):
        a, x, y = setup
        expect = a + alpha * np.outer(y, x)
        dger(y, x, a, alpha)
        np.testing.assert_allclose(a, expect)

    def test_alpha_zero_noop(self, setup):
        a, x, y = setup
        expect = a.copy()
        dger(y, x, a, 0.0)
        np.testing.assert_array_equal(a, expect)

    def test_dim_mismatch(self, setup):
        a, x, y = setup
        with pytest.raises(DimensionError):
            dger(x, x, a)  # x has length 5, A has 7 rows

    def test_row_view_target(self, rng):
        # the k-odd fix-up updates a sub-block view of C
        c = np.asfortranarray(rng.standard_normal((9, 9)))
        block = c[:8, :8]
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        expect = block + np.outer(x, y)
        dger(x, y, block)
        np.testing.assert_allclose(c[:8, :8], expect)

    def test_dry_charges(self):
        ctx = ExecutionContext(dry=True)
        dger(Phantom(7), Phantom(5), Phantom(7, 5), ctx=ctx)
        assert ctx.mul_flops == 35 and ctx.add_flops == 35

    def test_buffer_size_restored(self, rng):
        """Large updates run under a one-line ufunc buffer; the caller's
        buffer size comes back, also when the update raises."""
        before = np.getbufsize()
        a = np.asfortranarray(rng.standard_normal((300, 250)))
        dger(rng.standard_normal(300), rng.standard_normal(250), a, 0.5)
        assert np.getbufsize() == before
        ints = np.zeros((300, 250), dtype="int64")
        with pytest.raises(TypeError):
            dger(np.ones(300, dtype="int64"), np.ones(250, dtype="int64"),
                 ints, 0.3)
        assert np.getbufsize() == before
        assert not ints.any()


def _ger_reference(x, y, a, alpha):
    """The whole-matrix formula DGER replaced: one outer temporary."""
    outer = np.multiply.outer(x, y)
    if alpha != 1.0:
        outer *= alpha
    a += outer


def _operand(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if dtype == "complex128":
        x = x + 1j * rng.standard_normal(shape)
    elif dtype == "int64":
        x = np.round(8 * x)
    return x.astype(dtype)


def _layout(z, layout):
    """``z`` as an F-ordered, C-ordered or strided-window matrix."""
    if layout == "F":
        return np.asfortranarray(z)
    if layout == "C":
        return np.ascontiguousarray(z)
    m, n = z.shape
    big = np.zeros((2 * m + 3, 3 * n + 2), dtype=z.dtype, order="F")
    win = big[1:2 * m + 1:2, 2:3 * n + 2:3]
    win[...] = z
    return win


class TestDgerBitIdentity:
    """The blocked kernel equals the whole-matrix formula bit for bit,
    including which inputs it refuses (int64 with a float alpha)."""

    @pytest.mark.parametrize("dtype", ["float64", "float32", "complex128",
                                       "int64", "object"])
    @pytest.mark.parametrize("layout", ["F", "C", "window"])
    # 0.3 is inexact, so x*(y*alpha) would differ from (x*y)*alpha
    @pytest.mark.parametrize("alpha", [1.0, 0.5, -1.0, 0.3])
    # (200, 7) and (7, 200): one long and one short line, so each layout
    # runs both sides of the buffered/plain split
    @pytest.mark.parametrize("m,n", [(1, 9), (9, 1), (300, 250), (200, 7),
                                     (7, 200)])
    def test_matches_outer_formula(self, rng, dtype, layout, alpha, m, n):
        x = _operand(rng, m, dtype)
        y = _operand(rng, n, dtype)
        z = _operand(rng, (m, n), dtype)
        a, expect = _layout(z, layout), _layout(z, layout)
        try:
            _ger_reference(x, y, expect, alpha)
        except TypeError as exc:
            before = a.copy()
            with pytest.raises(type(exc)):
                dger(x, y, a, alpha)
            np.testing.assert_array_equal(a, before)
            return
        dger(x, y, a, alpha)
        assert a.dtype == expect.dtype
        if dtype == "object":
            assert a.tolist() == expect.tolist()
        else:
            assert (np.ascontiguousarray(a).tobytes()
                    == np.ascontiguousarray(expect).tobytes())

    @pytest.mark.parametrize("side", ["tail", "head"])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_fixups_at_odd_order(self, rng, monkeypatch, side, order):
        from repro.core import peeling

        m, k, n = 201, 199, 203
        a = _layout(rng.standard_normal((m, k)), order)
        b = _layout(rng.standard_normal((k, n)), order)
        c0 = _layout(rng.standard_normal((m, n)), order)
        fix = (peeling.apply_fixups if side == "tail"
               else peeling.apply_fixups_head)

        def reference_dger(x, y, a, alpha=1.0, *, ctx=None):
            _ger_reference(x, y, a, alpha)
            return a

        c_new = c0.copy(order="K")
        fix(a, b, c_new, 0.3, 0.75)
        c_ref = c0.copy(order="K")
        monkeypatch.setattr(peeling, "dger", reference_dger)
        fix(a, b, c_ref, 0.3, 0.75)
        assert c_new.tobytes(order="A") == c_ref.tobytes(order="A")
