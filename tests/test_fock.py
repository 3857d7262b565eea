import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, kernels, states, verify
from test_kernels import projector, random_sector_state


def test_layout_validation():
    layout = fock.ModeLayout(8)
    assert layout.dim == 8
    assert layout.doubled().dim == 64
    assert layout.doubled().single() == layout
    with pytest.raises(fock.LayoutError):
        fock.ModeLayout(1)
    with pytest.raises(fock.LayoutError):
        fock.ModeLayout(8, modes=3)
    with pytest.raises(fock.LayoutError):
        fock.ModeLayout(8.0)


def test_ladder_matrix_elements():
    layout = fock.ModeLayout(6)
    a = verify.annihilation(layout)
    # a|n> = sqrt(n)|n-1>
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n))
    assert np.count_nonzero(a) == 5
    np.testing.assert_array_equal(verify.creation(layout), a.conj().T)


def test_number_operator_diagonal():
    layout = fock.ModeLayout(7)
    np.testing.assert_array_equal(
        verify.number(layout), np.diag(np.arange(7, dtype=complex))
    )


def test_commutator_is_identity_on_interior():
    layout = fock.ModeLayout(12)
    a = verify.annihilation(layout)
    ad = verify.creation(layout)
    comm = a @ ad - ad @ a
    np.testing.assert_allclose(comm[:11, :11], np.eye(11), atol=1e-13)
    # the top level absorbs the truncation: [a, a+] there is -(N-1), not 1
    assert comm[11, 11] == pytest.approx(-11.0)


def test_number_equals_ladder_product():
    layout = fock.ModeLayout(30)
    a = verify.annihilation(layout)
    np.testing.assert_allclose(a.conj().T @ a, verify.number(layout), atol=1e-12)


def test_single_mode_objects_refuse_two_mode_layouts():
    # two-mode operators are built by sector; dense np.kron
    # embeddings exist only as test oracles
    two = fock.ModeLayout(4).doubled()
    for build in (verify.annihilation, verify.creation, verify.number):
        with pytest.raises(fock.LayoutError, match="single-mode"):
            build(two)


def test_ladder_operators_are_complex_arrays():
    layout = fock.ModeLayout(4)
    for build in (verify.annihilation, verify.creation, verify.number):
        op = build(layout)
        assert type(op) is np.ndarray
        assert op.dtype == np.complex128 and op.shape == (4, 4)


def test_expectation_checks_observable_shape():
    rho = projector(np.eye(4)[1])
    with pytest.raises(fock.LayoutError, match="shape"):
        verify.expectation(rho, np.eye(3))
    with pytest.raises(fock.LayoutError, match="shape"):
        verify.expectation(rho, np.eye(16))


def test_density_matrix_validation():
    layout = fock.ModeLayout(4)
    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho = fock.DensityMatrix(layout, good)
    # the tolerance is checked on entry, not kept
    assert not hasattr(rho, "trace_tol")

    bad_trace = np.diag([0.4, 0.3, 0.2, 0.2]).astype(complex)
    with pytest.raises(fock.StateError, match="trace"):
        fock.DensityMatrix(layout, bad_trace)
    # the same matrix is accepted once the tolerance admits the deficit
    fock.DensityMatrix(layout, bad_trace, trace_tol=0.2)

    skew = good.copy()
    skew[0, 1] = 0.1j
    with pytest.raises(fock.StateError, match="hermitian"):
        fock.DensityMatrix(layout, skew)


def test_a_real_matrix_is_checked_and_stored_as_float64(monkeypatch):
    checked = []
    defect = kernels.hermiticity_defect
    monkeypatch.setattr(kernels, "hermiticity_defect", lambda mat: checked.append(mat.dtype) or defect(mat))
    layout = fock.ModeLayout(5)
    real = np.diag([0.4, 0.3, 0.2, 0.05, 0.05])
    real[1, 3] = real[3, 1] = 0.01
    rho = fock.DensityMatrix(layout, real)
    as_complex = fock.DensityMatrix(layout, real.astype(complex))
    assert checked == [np.float64, np.complex128]
    # both routes store the same real diagonals, bit for bit
    assert rho.diagonals.dtype == as_complex.diagonals.dtype == np.float64
    np.testing.assert_array_equal(rho.diagonals, as_complex.diagonals)
    # and the chaotic state's populations are those of the complex route
    params = states.ThermoParams(1.3)
    chaotic = states.chaotic_state(params, fock.ModeLayout(32))
    pops = (1.0 - params.q) * params.q ** np.arange(32)
    via_complex = fock.DensityMatrix(fock.ModeLayout(32), np.diag(pops).astype(complex), trace_tol=1e-3)
    assert chaotic.diagonals.dtype == np.float64
    np.testing.assert_array_equal(chaotic.diagonals, via_complex.diagonals)

    asymmetric = real.copy()
    asymmetric[0, 2] = 0.1
    with pytest.raises(fock.StateError, match="hermitian"):
        fock.DensityMatrix(layout, asymmetric)
    nan = real.copy()
    nan[2, 2] = np.nan
    with pytest.raises(fock.StateError, match="non-finite"):
        fock.DensityMatrix(layout, nan)


def test_sector_blocks_are_validated():
    layout = fock.ModeLayout(4).doubled()
    # the projector on |1, 1~>, index 1 of sector 0
    proj = fock.DensityMatrix.from_factors(layout, {0: np.eye(4)[:, [1]]})
    assert proj.sectors == range(0, 1)
    np.testing.assert_array_equal(proj.factor(0)[:, 0], [0, 1, 0, 0])
    # a sector of the layout that the state does not store reads as zero;
    # one outside the layout is refused
    np.testing.assert_array_equal(proj.factor(-3), np.zeros((1, 1)))
    for d in (-4, 4, 7):
        with pytest.raises(fock.LayoutError, match="outside the layout"):
            proj.factor(d)
    with pytest.raises(fock.LayoutError, match="single-mode"):
        fock.DensityMatrix(layout.single(), np.eye(4) / 4).factor(0)
    with pytest.raises(fock.LayoutError, match="two-mode"):
        fock.sector_indices(layout.single(), 0)
    # sector 1 holds 3 states; factors of 1, 2, 0 and 1 columns, trace 0.93
    factors = {0: 0.8 * proj.factor(0), 1: np.full((3, 2), 0.2j), -2: np.zeros((2, 0)), 3: np.full((1, 1), 0.3)}
    rho = fock.DensityMatrix.from_factors(layout, factors, trace_tol=0.1)
    assert rho.sectors == range(-2, 4) and rho.factors.shape == (6, 4, 2)
    dense = np.zeros((16, 16), dtype=complex)
    for d, f in factors.items():
        idx = fock.sector_indices(layout, d)
        dense[np.ix_(idx, idx)] = f @ f.conj().T
    np.testing.assert_allclose(rho.mat, dense, rtol=0, atol=1e-16)
    with pytest.raises(fock.LayoutError, match="shape"):
        fock.DensityMatrix.from_factors(layout, {0: np.eye(3)})
    with pytest.raises(fock.LayoutError, match="outside"):
        fock.DensityMatrix.from_factors(layout, {4: np.eye(1)})
    with pytest.raises(fock.StateError, match="non-finite"):
        fock.DensityMatrix.from_factors(layout, {0: np.full((4, 1), np.nan)})
    with pytest.raises(fock.StateError, match="trace"):
        fock.DensityMatrix.from_factors(layout, {0: np.ones((4, 1))})
    with pytest.raises(fock.LayoutError, match="two-mode"):
        fock.DensityMatrix.from_factors(layout.single(), {0: np.eye(4) / 2})


def test_entries_between_sectors_are_refused():
    # basis state 3 = (0, 3~) lies in sector 3 and 4 = (1, 0~) in sector -1
    layout = fock.ModeLayout(4).doubled()
    coupled = np.zeros((16, 16), dtype=complex)
    coupled[3, 3] = coupled[4, 4] = coupled[3, 4] = coupled[4, 3] = 0.5
    # a factor per sector cannot hold such entries, and no dense two-mode
    # matrix is taken
    with pytest.raises(fock.LayoutError, match="from_factors"):
        fock.DensityMatrix(layout, coupled)
    with pytest.raises(fock.LayoutError, match="outside"):
        fock.DensityMatrix.from_factors(layout, {3: np.eye(1) / 2, -1: np.eye(3, 1) / 2, (3, -1): np.eye(1)})


def test_density_matrix_positivity_check():
    layout = fock.ModeLayout(3)
    rho = fock.DensityMatrix(layout, np.diag([1.5, -0.5, 0.0]).astype(complex))
    assert rho.min_eigenvalue() == pytest.approx(-0.5)


def test_outer_builds_projector():
    # a pure state enters as its dense projector
    layout = fock.ModeLayout(4)
    vec = np.array([0.6, 0.8j, 0.0, 0.0], dtype=complex)
    rho = fock.DensityMatrix(layout, np.outer(vec, vec.conj()))
    np.testing.assert_allclose(rho.mat, np.outer(vec, vec.conj()), atol=1e-15)
    assert fock.purity(rho) == pytest.approx(1.0)


def test_partial_trace_of_product_state():
    layout = fock.ModeLayout(6)
    rng = np.random.default_rng(11)

    def random_density(n):
        # diagonal, so that the product is block diagonal in the pair-number sectors
        pops = rng.random(n)
        return np.diag(pops / pops.sum()).astype(complex)

    rho_a = random_density(6)
    rho_b = random_density(6)
    # the factor of each sector is the diagonal of square roots
    roots = np.sqrt(np.diag(np.kron(rho_a, rho_b)).real)
    doubled = layout.doubled()
    factors = {d: np.diag(roots[fock.sector_indices(doubled, d)]) for d in range(-5, 6)}
    joint = fock.DensityMatrix.from_factors(doubled, factors)
    np.testing.assert_allclose(joint.mat, np.kron(rho_a, rho_b), rtol=0, atol=1e-16)
    np.testing.assert_allclose(
        fock.partial_trace(joint, over=fock.TILDE).mat, rho_a, atol=1e-13
    )
    np.testing.assert_allclose(
        fock.partial_trace(joint, over=fock.SYSTEM).mat, rho_b, atol=1e-13
    )


def test_partial_trace_requires_two_modes():
    layout = fock.ModeLayout(4)
    rho = fock.DensityMatrix(layout, np.eye(4, dtype=complex) / 4)
    with pytest.raises(fock.LayoutError):
        fock.partial_trace(rho, over=fock.TILDE)


def test_expectation_and_trace():
    layout = fock.ModeLayout(5)
    pops = np.array([0.5, 0.25, 0.15, 0.07, 0.03])
    rho = fock.DensityMatrix(layout, np.diag(pops).astype(complex))
    val = verify.expectation(rho, verify.number(layout))
    assert val.real == pytest.approx(np.dot(pops, np.arange(5)))
    assert abs(val.imag) < 1e-15
    assert fock.trace(rho).real == pytest.approx(1.0)


def test_mean_occupation_reads_the_populations():
    layout = fock.ModeLayout(40)
    params = states.ThermoParams(1.3)
    for rho in (states.chaotic_state(params, layout), channel.apply_kraus(states.chaotic_state(params, layout), 0.6)):
        via_number = verify.expectation(rho, verify.number(layout)).real
        assert fock.mean_occupation(rho) == pytest.approx(via_number, rel=1e-15, abs=0)
    with pytest.raises(fock.LayoutError):
        fock.mean_occupation(states.thermal_vacuum(params, layout.doubled()))


def test_expectation_refuses_two_mode_states():
    # the dense two-mode matrix it would read holds cutoff^4 entries
    two = fock.ModeLayout(4).doubled()
    # the projector on |1, 2~>, index 1 of sector 1
    rho = fock.DensityMatrix.from_factors(two, {1: np.eye(3)[:, [1]]})
    with pytest.raises(fock.LayoutError, match="single-mode"):
        verify.expectation(rho, np.eye(16))


def test_trace_distance_of_basis_projectors():
    p0 = projector(np.eye(4)[0])
    p1 = projector(np.eye(4)[1])
    assert fock.trace_distance(p0, p1) == pytest.approx(1.0)
    assert fock.trace_distance(p0, p0) == pytest.approx(0.0, abs=1e-15)


def test_trace_distance_of_a_state_to_itself_is_zero():
    rng = np.random.default_rng(17)
    single = fock.ModeLayout(9)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    layout = single.doubled()
    params = states.ThermoParams(1.0)
    damped = channel.apply_kraus(states.thermal_vacuum(params, layout), 0.4)
    for rho in (
        fock.DensityMatrix(single, m @ m.conj().T / np.trace(m @ m.conj().T)),
        fock.DensityMatrix.from_factors(layout, random_sector_state(layout, rng)),
        states.evolved_two_mode_state(params, 0.4, layout),
        damped,
    ):
        assert fock.trace_distance(rho, rho) == 0.0
    # the same state, one copy with a zero sector and a zero column more
    padded = {d: np.hstack([damped.factor(d), np.zeros((9 - abs(d), 1))]) for d in range(-1, 9)}
    assert fock.trace_distance(damped, fock.DensityMatrix.from_factors(layout, padded, trace_tol=1e-3)) < 1e-15


def block_partitions(dim):
    """Block sizes summing to dim: one dense block, all singletons, or random cuts."""

    def sizes(cuts):
        edges = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), dim]
        return np.diff(edges).tolist()

    cuts = st.lists(st.booleans(), min_size=dim - 1, max_size=dim - 1)
    return st.one_of(st.just([dim]), st.just([1] * dim), cuts.map(sizes))


def block_density(sizes, perm, rng):
    # hermitian, unit trace, block-diagonal after undoing perm
    dim = sum(sizes)
    mat = np.zeros((dim, dim), dtype=complex)
    lo = 0
    for size in sizes:
        x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        mat[lo:lo + size, lo:lo + size] = x + x.conj().T
        lo += size
    mat += np.eye(dim) * (1.0 - mat.trace().real) / dim
    return mat[np.ix_(perm, perm)]


@settings(max_examples=60, deadline=None)
@given(
    # a single-mode layout of cutoff dim holds the matrix; cutoffs start at 2
    sizes=st.integers(2, 40).flatmap(block_partitions),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_distance_is_exact_on_permuted_blocks(sizes, seed):
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    perm = rng.permutation(dim)
    layout = fock.ModeLayout(dim)
    rho = fock.DensityMatrix(layout, block_density(sizes, perm, rng))
    sigma = fock.DensityMatrix(layout, block_density(sizes, perm, rng))
    expected = 0.5 * np.abs(np.linalg.eigvalsh(rho.mat - sigma.mat)).sum()
    assert abs(fock.trace_distance(rho, sigma) - expected) <= 1e-12 * expected + 1e-15


@pytest.mark.parametrize(
    "theta, expected",
    [
        (0.0, fock.CUTOFF_MIN),
        (0.703414556873647626, 33),   # tau0 = 1
        (1.243608860526965691, 97),   # tau0 = 3
        (0.191170919069292431, 10),   # tau0 = 0.3
        (5.0, fock.CUTOFF_MAX),
    ],
)
def test_default_cutoff(theta, expected):
    assert fock.default_cutoff(theta) == expected
