import tracemalloc
from functools import reduce

import numpy as np
import pytest

from sixvertex import vertex_core
from sixvertex.dwbc import b_product_state
from sixvertex.errors import GenericityExhausted
from sixvertex.numkit import kron_chain
from sixvertex.vertex_core import (
    SX,
    SY,
    SZ,
    ModelParams,
    _local_blocks,
    b_commute_residual,
    b_operator,
    commuting_residual,
    full_product_residuals,
    generic_points,
    hamiltonian,
    hamiltonian_residuals,
    is_generic,
    monodromy,
    monodromy_full,
    r_matrix,
    rll_residual,
    sample_mu,
    special_value_residuals,
    transfer,
    twist_matrix,
    twist_symmetry_residual,
    unitarity_residual,
    weights,
    ybe_residual,
)

GAMMA = complex(0.43, 0.21)


def params_for(L, gamma=GAMMA, seed=7):
    rng = np.random.default_rng(seed)
    return ModelParams(L, gamma, sample_mu(L, gamma, rng))


def test_weights_at_origin():
    a, b, c = weights(0j, GAMMA)
    assert b == 0
    assert a == c == np.sinh(GAMMA)


def test_weights_zero_of_a():
    a, _, _ = weights(-GAMMA, GAMMA)
    assert abs(a) < 1e-16


def test_weights_free_fermion_point():
    lam = 0.7 - 0.2j
    a, _, c = weights(lam, 1j * np.pi / 2)
    assert abs(a - 1j * np.cosh(lam)) < 1e-15
    assert abs(c - 1j) < 1e-15


def test_r_at_origin_is_swap():
    assert special_value_residuals(params_for(1))["r_at_origin"] < 1e-15


def test_yang_baxter_equation():
    p = params_for(1)
    rng = np.random.default_rng(11)
    for _ in range(100):
        lam, mu_ = generic_points(2, rng)
        assert ybe_residual(lam, mu_, p) < 1e-10


def test_r_unitarity():
    p = params_for(1)
    rng = np.random.default_rng(12)
    for _ in range(20):
        lam = generic_points(1, rng)[0]
        assert unitarity_residual(lam, p) < 1e-10


def test_twist_properties():
    g = twist_matrix()
    assert np.array_equal(g, SX)
    assert np.array_equal(g @ g, np.eye(2))
    p = params_for(1)
    rng = np.random.default_rng(13)
    for _ in range(100):
        lam = generic_points(1, rng)[0]
        assert twist_symmetry_residual(lam, p) < 1e-12


def test_monodromy_single_site_blocks():
    p = params_for(1)
    lam = 0.37 + 0.49j
    a, b, c = weights(lam - p.mu[0], GAMMA)
    (a_op, b_op), (c_op, d_op) = monodromy(lam, p)
    assert np.allclose(a_op, np.diag([a, b]))
    assert np.allclose(d_op, np.diag([b, a]))
    assert np.allclose(b_op, c * np.array([[0, 0], [1, 0]]))
    assert np.allclose(c_op, c * np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_action_on_reference_states(L):
    p = params_for(L)
    rng = np.random.default_rng(L)
    lam = generic_points(1, rng, avoid=p.mu)[0]
    assert full_product_residuals(lam, p)["action"] < 1e-10


def test_block_reassembly_matches_full_product():
    p = params_for(3)
    lam = -0.21 + 0.64j
    assert full_product_residuals(lam, p)["block_assembly"] < 1e-12


def _kron_chain_monodromy(lam, params):
    """The full product as the ordered matmul of its site factors, each
    embedded on the auxiliary x quantum space by Kronecker products."""
    L = params.L
    factors = []
    for j in range(L):
        # looked up at call time, so that a patched transcription reaches
        # both builds
        blocks = vertex_core._local_blocks(lam - params.mu[j], params.gamma)
        pre = np.eye(2 ** j, dtype=complex)
        post = np.eye(2 ** (L - 1 - j), dtype=complex)
        emb = np.zeros((2 ** (L + 1), 2 ** (L + 1)), dtype=complex)
        for (p, q), blk in zip([(0, 0), (0, 1), (1, 0), (1, 1)], blocks):
            e = np.zeros((2, 2), dtype=complex)
            e[p, q] = 1.0
            emb += kron_chain(e, pre, blk, post)
        factors.append(emb)
    return reduce(np.matmul, factors)


@pytest.mark.parametrize("L", range(1, 9))
def test_full_product_is_the_kron_chain_product(L):
    p = params_for(L, seed=50 + L)
    rng = np.random.default_rng(60 + L)
    for lam in generic_points(2, rng, avoid=p.mu):
        ref = _kron_chain_monodromy(lam, p)
        got = np.block(monodromy_full(lam, p))
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def _blocks_with_forbidden_entry(lam, gamma):
    # A gains an entry that takes an up arrow in and a down arrow out
    a_loc, b_loc, c_loc, d_loc = _local_blocks(lam, gamma)
    a_loc = a_loc.copy()
    a_loc[0, 1] = 0.5
    return a_loc, b_loc, c_loc, d_loc


@pytest.mark.parametrize("L", [2, 3, 5])
def test_full_product_assumes_no_ice_rule(L, monkeypatch):
    # the growth skips a slot only where the weights are zero, so an entry
    # the ice rule forbids still reaches the product
    p = params_for(L, seed=50 + L)
    lam = generic_points(1, np.random.default_rng(60 + L), avoid=p.mu)[0]
    monkeypatch.setattr(vertex_core, "_local_blocks", _blocks_with_forbidden_entry)
    ref = _kron_chain_monodromy(lam, p)
    got = np.block(monodromy_full(lam, p))
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    assert full_product_residuals(lam, p)["block_assembly"] > 1e-3


def _broadcast_contraction(lam, params, rows):
    """The two-product recurrence m'[a, c] = m[a, 0] (x) r[0, c]
    + m[a, 1] (x) r[1, c] over the site tensors of r_matrix, written with
    broadcasts and no use of the ice rule."""
    sites = [r_matrix(lam - mu, params).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
             for mu in params.mu]
    m = sites[0][rows]
    for r in sites[1:]:
        d = m.shape[-1]
        m = (m[:, 0, None, :, None, :, None] * r[None, 0, :, None, :, None, :]
             + m[:, 1, None, :, None, :, None] * r[None, 1, :, None, :, None, :]
             ).reshape(len(m), 2, 2 * d, 2 * d)
    return m


@pytest.mark.parametrize("L", range(1, 9))
def test_ice_rule_contraction_is_the_broadcast_recurrence(L):
    p = params_for(L, seed=30 + L)
    rng = np.random.default_rng(40 + L)
    # at mu_1 and mu_1 - gamma a weight of site 1 is exactly zero
    for lam in generic_points(3, rng) + (p.mu[0], p.mu[0] - GAMMA):
        ref = _broadcast_contraction(lam, p, slice(None))
        assert np.array_equal(monodromy(lam, p), ref)
        assert np.array_equal(transfer(lam, p), ref[0, 1] + ref[1, 0])
        assert np.array_equal(b_operator(lam, p),
                              _broadcast_contraction(lam, p, slice(0, 1))[0, 1])


@pytest.mark.parametrize("L", range(1, 9))
def test_gathered_operators_have_one_entry_per_ice_rule_path(L):
    p = params_for(L, seed=90 + L)
    lam = generic_points(1, np.random.default_rng(L), avoid=p.mu)[0]
    mono = monodromy(lam, p)
    assert np.count_nonzero(b_operator(lam, p)) == (3**L - 1) // 2
    assert np.count_nonzero(transfer(lam, p)) == 3**L - 1
    assert np.count_nonzero(mono) == 2 * 3**L
    # B raises the number of up spins by one and C lowers it by one
    assert not np.any((mono[0, 1] != 0) & (mono[1, 0] != 0))


@pytest.mark.parametrize("L", range(1, 9))
def test_gathered_entries_at_an_array_of_points_are_the_scalar_builds(
        L, monkeypatch):
    # at L = 8 one gather call takes 4 B's or 2 T's, so 9 B's and 5 T's
    # are gathered in 3 chunks each, the last one short; every read of a
    # chunk is the one-point build bit for bit
    p = params_for(L, seed=60 + L)
    rng = np.random.default_rng(70 + L)
    # at mu_1 and mu_1 - gamma a weight of site 1 is exactly zero
    pts = (p.mu[0], p.mu[0] - GAMMA) + generic_points(7, rng)
    gather, cap = vertex_core._gather, vertex_core._GATHER_ENTRIES
    for first, stop, build, n in ((1, 2, b_operator, 9), (1, 3, transfer, 5)):
        sizes = []

        def counted(*args):
            vals = gather(*args)
            sizes.append(vals.size)
            return vals

        with monkeypatch.context() as m:
            m.setattr(vertex_core, "_gather", counted)
            ops = vertex_core.BlockOperators(pts[:n], p, first, stop)
        per = cap // len(vertex_core._blocks(L, first, stop)[0])
        assert len(sizes) == -(-n // per) and max(sizes) <= cap
        for j, x in enumerate(pts[:n]):
            assert ops[j].tobytes() == build(x, p).tobytes()


def test_a_gather_above_256_kib_is_the_scalar_builds():
    # 48 points x 364 B entries at L = 6 take 273 KiB, x 728 T entries
    # 546 KiB: above 256 KiB numpy's temporary elision swaps the operands
    # of the site product unless its factor is named, and the swapped
    # product gives other bits
    p = params_for(6, seed=66)
    rng = np.random.default_rng(67)
    pts = rng.uniform(-1, 1, 48) + 1j * rng.uniform(-1, 1, 48)
    for first, stop, build in ((1, 3, transfer), (1, 2, b_operator)):
        vals = vertex_core._gather(pts, p, first, stop)
        at = vertex_core._blocks(6, first, stop)[0]
        assert vals.nbytes > 256 * 1024
        assert vals.tobytes() == np.array(
            [build(x, p).ravel()[at] for x in pts]).tobytes()


def _loop_gather(lam, params, first, stop):
    """The per-site gather that the prefix tree replaced: every path's
    value multiplied site by site, left to right, site 1 first; the
    oracle of `vertex_core._gather`."""
    L = params.L
    lam = np.asarray(lam)
    sites = np.swapaxes(
        r_matrix(lam[..., None] - np.array(params.mu), params)
        .reshape(lam.shape + (L, 2, 2, 2, 2)), -3, -2)
    w = sites.reshape(lam.shape + (L, 16))
    _, _, idx, bounds = vertex_core._paths(L)
    sl = slice(bounds[first], bounds[stop])
    vals = w[..., 0, :].take(idx[0, sl], axis=-1)
    for k in range(1, L):
        f = w[..., k, :].take(idx[k, sl], axis=-1)
        vals = vals * f
    return vals


BLOCK_RANGES = [(0, 4), (1, 2), (1, 3)]


@pytest.mark.parametrize("L", range(1, 9))
def test_prefix_tree_gather_is_the_per_site_loop_bit_for_bit(L):
    p = params_for(L, seed=150 + L)
    rng = np.random.default_rng(160 + L)
    # at mu_1 a b weight, and so a whole prefix, is exactly zero
    pts = np.array(generic_points(3, rng) + (p.mu[0], p.mu[-1]))
    for first, stop in BLOCK_RANGES:
        ref = _loop_gather(pts, p, first, stop)
        assert vertex_core._gather(pts, p, first, stop).tobytes() == \
            ref.tobytes()
        for x, row in zip(pts, ref):
            assert vertex_core._gather(x, p, first, stop).tobytes() == \
                row.tobytes()


def test_a_prefix_tree_gather_above_256_kib_is_the_per_site_loop():
    # above 256 KiB numpy's temporary elision would swap the operands of an
    # unnamed factor; 40 points take 455 KiB of B and 1.2 MiB of monodromy
    # entries at L = 6, 3 points 0.6 MiB of monodromy entries at L = 8
    for L, n in ((6, 40), (8, 3)):
        p = params_for(L, seed=170 + L)
        rng = np.random.default_rng(180 + L)
        pts = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        for first, stop in BLOCK_RANGES:
            vals = vertex_core._gather(pts, p, first, stop)
            ref = _loop_gather(pts, p, first, stop)
            if (first, stop) == (0, 4):
                assert vals.nbytes > 256 * 1024
            assert vals.tobytes() == ref.tobytes()


@pytest.mark.parametrize("L,n", [(6, 15), (8, 2)])
def test_a_gather_holds_at_most_three_levels_at_once(L, n):
    # each level frees the finished one before its site factor is made and
    # multiplies in place: the peak of one call stays near three result
    # sizes, where a loop that kept the finished level beside a new
    # prefix, factor and product read 3.94 (L = 6) and 3.71 (L = 8)
    p = params_for(L, seed=220 + L)
    rng = np.random.default_rng(230 + L)
    pts = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    vertex_core._gather(pts, p, 1, 3)  # the cached prefix tree, untraced
    tracemalloc.start()
    try:
        vals = vertex_core._gather(pts, p, 1, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * vals.nbytes


def _dense_string(lams, params):
    """B(lams[0]) ... B(lams[-1]) |up>, one dense `b_operator` at a time."""
    v = vertex_core.reference_states(params.L)[0]
    for x in reversed(lams):
        v = b_operator(x, params) @ v
    return v


@pytest.mark.parametrize("L", range(1, 9))
def test_gathered_strings_are_the_dense_chains_bit_for_bit(L):
    p = params_for(L, seed=190 + L)
    rng = np.random.default_rng(200 + L)
    for n in range(L + 2):
        lams = generic_points(n, rng, avoid=p.mu)
        ops = vertex_core.BOperators(lams, p)
        # the string, the reversed string and a suffix, which share vectors
        orders = [range(n), range(n - 1, -1, -1), range(n // 2, n)]
        for order, got in zip(orders, ops.strings(orders)):
            ref = _dense_string([lams[j] for j in order], p)
            assert np.array_equal(got, ref)
        assert np.array_equal(b_product_state(lams, p), _dense_string(lams, p))
        for j, x in enumerate(lams):
            assert np.array_equal(ops[j], b_operator(x, p))


def test_r_matrix_at_an_array_of_points_is_the_stack_of_scalar_calls():
    p = params_for(4)
    # a generic point, and points where b or a vanishes at some site
    for lam in (0.31 + 0.15j, p.mu[2], p.mu[0] - GAMMA):
        pts = lam - np.array(p.mu)
        stacked = np.array([r_matrix(x, p) for x in pts])
        got = r_matrix(pts, p)
        assert got.shape == (4, 4, 4)
        assert np.array_equal(got.view(np.uint64), stacked.view(np.uint64))


def _r_with_forbidden_entry(lam, params):
    # R[(0, up), (0, down)] would flip one arrow at a vertex
    r = r_matrix(lam, params)
    r[..., 0, 1] = 1e-3
    return r


def test_site_tensor_breaking_the_ice_rule_raises(monkeypatch):
    p = params_for(3)
    monkeypatch.setattr(vertex_core, "r_matrix", _r_with_forbidden_entry)
    for build in (monodromy, transfer, b_operator):
        with pytest.raises(ValueError, match="ice rule"):
            build(LAM, p)


def _dense_rll_residual(lam1, lam2, params):
    """The exchange relation with T1, T2 and R embedded as dense operators
    on the two auxiliary spaces x the quantum space."""
    d = params.dim
    # looked up at call time, so that a patched build reaches both residuals
    full = vertex_core.monodromy_full
    t1 = vertex_core._embed_13(np.block(full(lam1, params)), d)
    t2 = np.kron(np.eye(2), np.block(full(lam2, params)))
    r12 = np.kron(r_matrix(lam1 - lam2, params), np.eye(d))
    lhs = r12 @ t1 @ t2
    return np.linalg.norm(lhs - t2 @ t1 @ r12) / np.linalg.norm(lhs)


@pytest.mark.parametrize("L", range(1, 7))
def test_block_rll_agrees_with_the_dense_relation(L, monkeypatch):
    p = params_for(L, seed=70 + L)
    rng = np.random.default_rng(80 + L)
    for _ in range(5):
        lam1, lam2 = generic_points(2, rng, avoid=p.mu)
        assert rll_residual(lam1, lam2, p) < 1e-9
        assert _dense_rll_residual(lam1, lam2, p) < 1e-9
    monkeypatch.setattr(vertex_core, "weights", _scaled_c)
    assert rll_residual(LAM, MU, p) > 1e-3
    assert _dense_rll_residual(LAM, MU, p) > 1e-3


def _with_weight_breaking_entry(lam, params):
    # auxiliary (0, 0) block, all-up row, all-down column: weight L apart
    full = monodromy_full(lam, params)
    full[0][0][0, params.dim - 1] += 0.5
    return full


def test_rll_sees_an_entry_that_breaks_weight_conservation(monkeypatch):
    p = params_for(3)
    monkeypatch.setattr(vertex_core, "monodromy_full", _with_weight_breaking_entry)
    got = rll_residual(LAM, MU, p)
    assert got > 1e-3
    assert got == pytest.approx(_dense_rll_residual(LAM, MU, p), rel=1e-12)


def _dense_commutator(a, b):
    return np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b))


@pytest.mark.parametrize("L", range(1, 7))
def test_sector_commutator_is_the_dense_commutator(L):
    p = params_for(L, seed=110 + L)
    rng = np.random.default_rng(120 + L)
    x, y = generic_points(2, rng, avoid=p.mu)
    noise = rng.standard_normal((p.dim, 2 * p.dim)).view(complex)
    pairs = [(transfer(x, p), transfer(y, p)),
             (b_operator(x, p), b_operator(y, p)),
             (b_operator(x, p), transfer(y, p)),
             (noise, transfer(x, p))]
    if L >= 2:
        pairs.append((hamiltonian(ModelParams(L, GAMMA, (0,) * L)),
                      transfer(x, ModelParams(L, GAMMA, (0,) * L))))
    for a, b in pairs:
        # both are relative to ||a|| ||b||
        got = vertex_core._commutator(vertex_core._split(a),
                                      vertex_core._split(b))
        assert abs(got - _dense_commutator(a, b)) <= 1e-14


def test_commutator_with_nan_in_a_zero_block_is_not_finite():
    p = params_for(3)
    a, b = transfer(LAM, p), transfer(MU, p)
    # T changes the weight by one, so its (0, L) block is zero
    a[0, p.dim - 1] = np.nan
    assert not np.isfinite(_dense_commutator(a, b))
    # the split keeps the block, so its products carry the NaN
    blocks = vertex_core._split(a)
    assert not np.isfinite(vertex_core._commutator(blocks,
                                                   vertex_core._split(b)))
    assert not np.isfinite(vertex_core._bnorm(blocks.values()))
    assert not np.isfinite(vertex_core._bnorm(
        vertex_core._bmatmul(blocks, vertex_core._split(b)).values()))


@pytest.mark.parametrize("L", range(1, 9))
def test_blocks_are_the_split_dense_operator_bit_for_bit(L):
    # at L = 8, 9 B's and 5 T's are gathered in 3 chunks each
    p = params_for(L, seed=130 + L)
    rng = np.random.default_rng(140 + L)
    # at mu_1 and mu_1 - gamma a weight of site 1 is exactly zero
    pts = (p.mu[0], p.mu[0] - GAMMA) + generic_points(7, rng)
    for first, stop, n in ((1, 2, 9), (1, 3, 5)):
        ops = vertex_core.BlockOperators(pts[:n], p, first, stop)
        if L == 8:
            assert len(ops._chunks) == 3
        for j in range(n):
            got = ops.blocks(j)
            want = vertex_core._split(ops[j])
            # every key of the split, in its order, and only zero blocks
            # besides
            assert [key for key in got if key in want] == list(want)
            for key, blk in got.items():
                if key in want:
                    assert blk.tobytes() == want[key].tobytes()
                else:
                    assert not blk.any()
            # B raises the weight by one, T = B + C moves it by one
            assert {c - r for r, c in got} <= {-1, 1}
            assert len(got) == (L if stop == 2 else 2 * L)


def test_a_holder_read_by_blocks_alone_has_no_dense_buffer(monkeypatch):
    # the 2^L x 2^L buffer (1 MiB at L = 8) is made at the first ops[j]
    p = params_for(8, seed=210)
    x, y = generic_points(2, np.random.default_rng(211), avoid=p.mu)
    made = []
    init = vertex_core.BlockOperators.__init__

    def recorded(self, *args):
        init(self, *args)
        made.append(self)

    with monkeypatch.context() as m:
        m.setattr(vertex_core.BlockOperators, "__init__", recorded)
        commuting_residual(x, y, p)
        b_commute_residual(x, y, p)
    assert len(made) == 2 and all(ops._buf is None for ops in made)
    for ops, build in zip(made, (transfer, b_operator)):
        before = [ops.blocks(j) for j in range(2)]
        assert ops._buf is None
        for j, lam in enumerate((x, y)):
            assert ops[j].tobytes() == build(lam, p).tobytes()
            after = ops.blocks(j)
            assert list(after) == list(before[j])
            assert all(after[key].tobytes() == blk.tobytes()
                       for key, blk in before[j].items())
        # every dense read reuses the one buffer
        assert ops[0] is ops[1]


def _four_b_product(p, pts):
    ops = vertex_core.BOperators(pts, p)
    prod = ops.blocks(0)
    for j in range(1, len(pts)):
        prod = vertex_core._bmatmul(prod, ops.blocks(j))
    dense = reduce(np.matmul, (b_operator(x, p) for x in pts))
    return prod, dense


@pytest.mark.parametrize("L", range(1, 8))
def test_block_two_norm_is_the_dense_two_norm(L):
    # B and a B-string move the weight by a fixed amount: no two blocks
    # share a row or a column, and the largest block norm is the 2-norm;
    # for operators whose blocks do share them it is a lower bound
    p = params_for(L, seed=150 + L)
    rng = np.random.default_rng(160 + L)
    x, *four = generic_points(5, rng, avoid=p.mu)
    exact = [(vertex_core.BOperators([x], p).blocks(0), b_operator(x, p)),
             _four_b_product(p, four)]
    noise = rng.standard_normal((p.dim, 2 * p.dim)).view(complex)
    bounded = [(vertex_core.BlockOperators([x], p, 1, 3).blocks(0),
                transfer(x, p)),
               (vertex_core._split(noise), noise)]
    if L >= 2:
        ham = hamiltonian(ModelParams(L, GAMMA, (0,) * L))
        bounded.append((vertex_core._split(ham), ham))
    for blocks, dense in exact:
        want = np.linalg.norm(dense, 2)
        assert abs(vertex_core._bnorm2(blocks) - want) <= 1e-14 * want
    for blocks, dense in bounded:
        want = np.linalg.norm(dense, 2)
        assert vertex_core._bnorm2(blocks) <= want * (1 + 1e-14)
    # a string longer than L has no block at all
    assert (vertex_core._bnorm2(exact[1][0]) == 0.0) == (L < 4)


def test_block_two_norm_of_nothing_and_of_nan():
    assert vertex_core._bnorm2({}) == 0.0
    p = params_for(3)
    for build in (transfer, b_operator):
        m = build(LAM, p)
        m[0, p.dim - 1] = np.nan
        assert np.isnan(vertex_core._bnorm2(vertex_core._split(m)))
    m = transfer(LAM, p)
    m[1, 2] = np.nan  # inside a nonzero block
    assert np.isnan(vertex_core._bnorm2(vertex_core._split(m)))


def test_rll_exchange_relation():
    p = params_for(3)
    rng = np.random.default_rng(17)
    for _ in range(5):
        lam1, lam2 = generic_points(2, rng, avoid=p.mu)
        assert rll_residual(lam1, lam2, p) < 1e-9


def test_transfer_single_site():
    p = params_for(1)
    lam = 0.12 - 0.77j
    t = transfer(lam, p)
    assert np.linalg.norm(t - np.sinh(GAMMA) * SX) < 1e-15
    vals = sorted(np.linalg.eigvals(t), key=lambda z: z.real)
    ref = sorted([np.sinh(GAMMA), -np.sinh(GAMMA)], key=lambda z: z.real)
    assert np.allclose(vals, ref)


def test_transfer_is_block_sum_and_trace():
    p = params_for(3)
    lam = 0.31 + 0.15j
    (_, b_op), (c_op, _) = monodromy(lam, p)
    t = transfer(lam, p)
    assert np.array_equal(t, b_op + c_op)
    assert full_product_residuals(lam, p)["trace_form"] < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_commuting_family(L):
    p = params_for(L)
    rng = np.random.default_rng(100 + L)
    for _ in range(20):
        x, y = generic_points(2, rng, avoid=p.mu)
        assert commuting_residual(x, y, p) < 1e-9


def test_creation_operators_commute():
    p = params_for(3)
    rng = np.random.default_rng(19)
    x, y = generic_points(2, rng, avoid=p.mu)
    assert b_commute_residual(x, y, p) < 1e-10


def test_hamiltonian_real_symmetric_for_real_gamma():
    p = ModelParams(2, 0.8, (0, 0))
    h = hamiltonian(p)
    assert np.linalg.norm(h.imag) < 1e-14
    assert np.linalg.norm(h - h.T) < 1e-14


def site_op(op, i, L):
    """Embed a single-site operator at site i (1-based) of an L-site chain."""
    return kron_chain(
        np.eye(2 ** (i - 1), dtype=complex), op, np.eye(2 ** (L - i), dtype=complex)
    )


def _site_product_hamiltonian(params):
    """Each bond as the product of two embedded single-site operators."""
    L = params.L
    h = np.zeros((2**L, 2**L), dtype=complex)
    cg = np.cosh(params.gamma)
    for i in range(1, L + 1):
        nxt, signs = (i + 1, (1.0, 1.0, 1.0)) if i < L else (1, (1.0, -1.0, -1.0))
        h += signs[0] * site_op(SX, i, L) @ site_op(SX, nxt, L)
        h += signs[1] * site_op(SY, i, L) @ site_op(SY, nxt, L)
        h += cg * signs[2] * site_op(SZ, i, L) @ site_op(SZ, nxt, L)
    return h


@pytest.mark.parametrize("L", range(2, 9))
def test_hamiltonian_is_the_site_product_construction(L):
    p = ModelParams(L, GAMMA, (0,) * L)
    assert np.array_equal(hamiltonian(p), _site_product_hamiltonian(p))


def test_hamiltonian_requires_homogeneous():
    with pytest.raises(ValueError):
        hamiltonian(ModelParams(2, GAMMA, (0.1, 0)))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_hamiltonian_commutes_with_transfer(L):
    p = ModelParams(L, GAMMA, (0,) * L)
    rng = np.random.default_rng(23)
    lam = generic_points(1, rng)[0]
    assert hamiltonian_residuals(lam, p)["hamiltonian_commutes"] < 1e-9


def test_transfer_log_derivative_is_affine_in_hamiltonian():
    p = ModelParams(3, GAMMA, (0, 0, 0))
    lam = generic_points(1, np.random.default_rng(23))[0]
    assert hamiltonian_residuals(lam, p)["log_derivative_fit"] < 1e-6


def test_site_op_embedding():
    op = site_op(SX, 2, 3)
    assert np.array_equal(op, kron_chain(np.eye(2), SX, np.eye(2)))


def test_genericity_filter_and_determinism():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    mu1 = sample_mu(4, GAMMA, rng1)
    mu2 = sample_mu(4, GAMMA, rng2)
    assert mu1 == mu2
    assert is_generic(ModelParams(4, GAMMA, mu1))
    assert not is_generic(ModelParams(2, GAMMA, (0.3, 0.3)))


def _scaled_c(lam, gamma):
    a, b, c = weights(lam, gamma)
    return a, b, 1.1 * c


def _r_scaled_c(lam, params):
    r = r_matrix(lam, params)
    r[..., [1, 2], [2, 1]] *= 1.1
    return r


def _swapped_ab(lam, gamma):
    a, b, c = weights(lam, gamma)
    return b, a, c


def _transposed_blocks(lam, gamma):
    # a layout break of the full product: B and C trade places
    return tuple(blk.T for blk in _local_blocks(lam, gamma))


LAM, MU = 0.31 + 0.15j, -0.2 + 0.4j

# check -> (vertex_core attribute, replacement that breaks the identity,
# residual at a fixed point of a 3-site chain)
BREAKS = {
    "ybe": ("weights", _scaled_c, lambda p: ybe_residual(LAM, MU, p)),
    "rll": ("weights", _scaled_c, lambda p: rll_residual(LAM, MU, p)),
    "action": ("weights", _swapped_ab,
               lambda p: full_product_residuals(LAM, p)["action"]),
    "block_assembly": (
        "_local_blocks", _transposed_blocks,
        lambda p: full_product_residuals(LAM, p)["block_assembly"]),
    # the blocks come from r_matrix, the full product from its own weights
    "block_assembly_r_matrix": (
        "r_matrix", _r_scaled_c,
        lambda p: full_product_residuals(LAM, p)["block_assembly"]),
    "trace_form": (
        "twist_matrix", lambda: np.eye(2, dtype=complex),
        lambda p: full_product_residuals(LAM, p)["trace_form"]),
    "log_derivative": (
        "weights", _scaled_c,
        lambda p: hamiltonian_residuals(
            LAM, ModelParams(p.L, p.gamma, (0,) * p.L))["log_derivative_fit"]),
    "twist_symmetry": (
        "twist_matrix", lambda: np.array([[1, 1], [0, 1]], dtype=complex),
        lambda p: twist_symmetry_residual(LAM, p)),
    "unitarity": ("weights", _scaled_c, lambda p: unitarity_residual(LAM, p)),
    "commuting_family": (
        "weights", _scaled_c, lambda p: commuting_residual(LAM, MU, p)),
    "b_commute": (
        "weights", _scaled_c, lambda p: b_commute_residual(LAM, MU, p)),
    "weights": ("weights", _scaled_c,
                lambda p: special_value_residuals(p)["weights"]),
    "r_at_origin": ("r_matrix", _r_scaled_c,
                    lambda p: special_value_residuals(p)["r_at_origin"]),
    "twist_square": (
        "twist_matrix", lambda: np.array([[1, 1], [0, 1]], dtype=complex),
        lambda p: special_value_residuals(p)["twist_square"]),
    "hamiltonian_commutes": (
        "weights", _scaled_c,
        lambda p: hamiltonian_residuals(
            LAM, ModelParams(p.L, p.gamma, (0,) * p.L))[
                "hamiltonian_commutes"]),
}


@pytest.mark.parametrize("check", sorted(BREAKS))
def test_residual_reads_large_on_broken_identity(check, monkeypatch):
    attr, broken, residual = BREAKS[check]
    p = params_for(3)
    monkeypatch.setattr(vertex_core, attr, broken)
    assert residual(p) > 1e-3


def scalar_generic_points(n, rng, avoid=()):
    """`generic_points` as the per-pair loop over scalar sinh calls that it
    replaced: its oracle.  Also returns the number of draws it took."""
    for draw in range(1, vertex_core._MAX_DRAWS + 1):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(n)]
        ok = True
        for i, p in enumerate(pts):
            others = pts[:i] + list(avoid)
            if any(abs(np.sinh(p - q)) <= 0.02 for q in others):
                ok = False
                break
        if ok:
            return tuple(pts), draw
    raise GenericityExhausted("no generic spectral-point draw found")


def scalar_sample_mu(L, gamma, rng):
    """`sample_mu` with two scalar uniform calls per point: its oracle."""
    for _ in range(vertex_core._MAX_DRAWS):
        mu = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(L))
        if vertex_core.is_generic(ModelParams(L, gamma, mu)):
            return mu
    raise GenericityExhausted("no generic inhomogeneity draw found")


def _rejecting_first(n):
    """`is_generic` that turns down its first n calls."""
    calls = []
    real = vertex_core.is_generic

    def is_generic(params):
        calls.append(params)
        return len(calls) > n and real(params)

    return is_generic


@pytest.mark.parametrize("L", range(1, 10))
def test_sample_mu_is_the_scalar_stream(L, monkeypatch):
    # twin generators, one drawn through each form, hold the same state
    # after the call, also when draws are thrown away
    for seed in range(4):
        fast, slow = (np.random.default_rng(seed) for _ in range(2))
        for redraws in (0, 3):
            with monkeypatch.context() as m:
                m.setattr(vertex_core, "is_generic", _rejecting_first(redraws))
                want = scalar_sample_mu(L, GAMMA, slow)
                m.setattr(vertex_core, "is_generic", _rejecting_first(redraws))
                assert sample_mu(L, GAMMA, fast) == want
            assert fast.bit_generator.state == slow.bit_generator.state


def test_generic_points_are_the_scalar_pair_loop():
    # the same tuples and the same generator state after the call, for
    # several sizes and `avoid` lists, some of which force a redraw
    p = ModelParams(5, GAMMA, sample_mu(5, GAMMA, np.random.default_rng(3)))
    zeros = list(np.array([0.31 - 0.2j, -0.5 + 0.45j, 0.07 + 0.9j]))
    redraws, among_new = 0, 0
    for seed in range(12):
        first = np.random.default_rng(seed)
        near = complex(first.uniform(-1, 1), first.uniform(-1, 1)) + 0.01j
        for n in (0, *range(1, 10), 40):
            for avoid in ((), p.mu, zeros + list(p.mu), [near], (near, 0j)):
                fast, slow = (np.random.default_rng(seed) for _ in range(2))
                want, draws = scalar_generic_points(n, slow, avoid)
                assert generic_points(n, fast, avoid=avoid) == want
                assert fast.bit_generator.state == slow.bit_generator.state
                redraws += draws > 1
                among_new += draws > 1 and not avoid
    # `near` forces a redraw at every seed for n >= 1, and 40 points
    # collide among themselves now and then (4 of these 12 seeds)
    assert redraws >= 12 * 4 * 2 and among_new >= 1
