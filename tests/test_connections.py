"""Metric connections: defining identities checked against raw-arithmetic oracles."""
from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from lcplie import connections, linalg
from lcplie.connections import (
    Connection,
    CurvatureTensor,
    InnerProduct,
    curvature,
    is_closed,
    is_torsion_free,
    levi_civita,
    torsion,
    weyl_connection,
)
from lcplie.lcp import is_flat_subspace, is_parallel
from lcplie.liealg import Covector, is_unimodular, trace_form
from lcplie.linalg import (
    Subspace,
    _lift,
    _unlift,
    identity_matrix,
    is_zero_vector,
    mat_vec,
    matrix,
    pair_index,
    pairs,
    vector,
    zero_vector,
)

import reference
from cases import (
    brute_force_subspaces,
    closed_covector,
    closed_covectors,
    corpus_cases,
    definite_inverse_samples,
    mutations,
    pipeline_cases,
    random_connection,
    random_llt_metric,
    random_metric_algebras,
    random_spd_metric,
    random_triple_structure,
    scaling_family,
    small_rational,
    symmetric_samples,
)
from conftest import (
    make_abelian,
    make_aff,
    make_heis3,
    make_sl2,
    make_sol3,
    sol3_theta,
)
from reference import gram_entry_sum, leading_minor_failure, mat_mul

F = Fraction

CORPUS = (make_abelian, make_heis3, make_aff, make_sol3, make_sl2)


def definiteness_verdict(gram):
    """The k that InnerProduct names as failing, or None when it accepts."""
    try:
        InnerProduct(gram)
    except ValueError as exc:
        found = re.fullmatch(
            r"gram matrix is not positive definite \(leading (\d+)x\1 minor fails\)", str(exc)
        )
        assert found, str(exc)
        return int(found.group(1))
    return None


class TestDefiniteInverse:
    def test_one_elimination_matches_the_bareiss_check_and_the_fraction_inverse(self):
        samples = definite_inverse_samples(seed=2026, count=1200)
        verdicts = {}
        for kind, gram in samples:
            expected = leading_minor_failure(gram)
            assert definiteness_verdict(gram) == expected, (kind, gram)
            verdicts.setdefault(kind, set()).add(expected)
            if expected is None:
                metric = InnerProduct(gram)
                inv = reference.inverse(gram)
                assert metric.gram_inverse == inv, gram
                d, (rows,) = _lift((inv,))
                assert metric.lifted_inverse == (d, rows), gram  # lowest terms, as _lift gives
        assert len(samples) >= 1000
        assert verdicts["llt"] == {None}
        assert None in verdicts["sparse"] and len(verdicts["sparse"]) > 1
        assert None not in verdicts["singular"] | verdicts["zero diagonal"]
        assert {1, 2, 3, 4} <= verdicts["random"] and {2, 3, 4} <= verdicts["zero minor"]
        # at least one named minor is zero, not negative
        assert any(
            (k := leading_minor_failure(gram))
            and reference.det(tuple(row[:k] for row in gram[:k])) == 0
            for kind, gram in samples if kind == "zero minor"
        )

    def test_identity_and_block_metrics_invert_on_their_nonzero_entries(self):
        identity = tuple((k, ((k, 1),)) for k in range(200))
        assert InnerProduct.identity(200).lifted_inverse == (1, identity)
        gram = ((F(2), F(1), F(0)), (F(1), F(2), F(0)), (F(0), F(0), F(1, 5)))
        # [[2, 1], [1, 2]]^-1 = [[2, -1], [-1, 2]] / 3 and (1/5)^-1 = 5 = 15/3
        rows = ((0, ((0, 2), (1, -1))), (1, ((0, -1), (1, 2))), (2, ((2, 15),)))
        assert InnerProduct(gram).lifted_inverse == (3, rows)
        assert InnerProduct(()).lifted_inverse == (1, ())


class TestInnerProduct:
    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            InnerProduct(matrix([[1, 1], [0, 1]]))

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError):
            InnerProduct(matrix([[1, 2], [2, 1]]))

    def test_sharp_inverts_the_metric(self):
        gram = InnerProduct(matrix([[2, 1], [1, 2]]))
        theta = Covector((F(1), F(0)))
        raised = gram.sharp(theta)
        # g(theta_sharp, y) = theta(y) for basis y
        for j in range(2):
            e = tuple(F(1) if k == j else F(0) for k in range(2))
            assert gram.value(raised, e) == theta.value(e)

    def test_rejects_float_and_bool_entries(self):
        for gram in (((1.0,),), ((True,),), ((F(2), 0.5), (0.5, F(2)))):
            with pytest.raises(TypeError):
                InnerProduct(gram)
        assert InnerProduct(((2, 1), (1, F(3, 2)))).dim == 2

    def test_restrict(self):
        gram = InnerProduct.identity(3)
        rows = (vector([1, 1, 0]), vector([0, 0, 2]))
        assert gram.restrict(rows) == matrix([[2, 0], [0, 4]])

    def test_restrict_matches_the_per_entry_form(self):
        rng = random.Random(1729)
        for n in range(1, 6):
            for _ in range(4):
                metric = random_llt_metric(rng, n)
                rows = [tuple(small_rational(rng) for _ in range(n)) for _ in range(rng.randint(0, n + 1))]
                rows += [tuple(rng.randint(-2, 2) for _ in range(n))]  # int entries are read as they are
                expected = tuple(tuple(metric.value(r, s) for s in rows) for r in rows)
                assert metric.restrict(rows) == expected
        for row in ((1.0, F(0)), (True, F(0))):
            with pytest.raises(TypeError):
                InnerProduct.identity(2).restrict([(F(1), F(0)), row])

    def test_restrict_edge_cases(self):
        metric = InnerProduct(matrix([[2, "1/2"], ["1/2", 3]]))
        assert metric.restrict([]) == ()
        # zero rows give zero rows and columns, also beside a nonzero row
        assert metric.restrict([(F(0), F(0)), (0, 0)]) == matrix([[0, 0], [0, 0]])
        assert metric.restrict([(F(0), F(0)), (F(1), F(0))]) == matrix([[0, 0], [0, 2]])
        for row in ((F(1),), (F(1), F(0), F(0)), (0, 0, 0)):
            with pytest.raises(ValueError):
                metric.restrict([(F(1), F(0)), row])
        # rows of ints only are read as they are, and the entries come out as Fractions
        out = metric.restrict([(1, 2), (0, -3)])
        assert out == matrix([[16, "-39/2"], ["-39/2", 27]])
        assert {type(x) for row in out for x in row} == {Fraction}

    def test_definiteness_check_matches_the_per_minor_oracle(self):
        samples = symmetric_samples(seed=1968)
        assert len(samples) >= 100
        kinds = {}
        for kind, gram in samples:
            expected = leading_minor_failure(gram)
            assert definiteness_verdict(gram) == expected, (kind, gram)
            kinds.setdefault(kind, set()).add(expected)
        assert kinds["positive definite"] == {None}
        assert kinds["1x1"] == {None, 1}
        assert None not in kinds["singular"] | kinds["zero diagonal entry"]
        # failures are named at the first leading minor and at later ones
        assert {1, 2, 3} <= kinds["indefinite or random"] & kinds["zero diagonal entry"]

    def test_definiteness_check_names_a_late_failing_minor(self):
        gram = matrix([[2, 1, 0], [1, 2, 1], [0, 1, F(1, 2)]])  # minors 2, 3, -1/2
        assert leading_minor_failure(gram) == 3
        with pytest.raises(ValueError, match=r"leading 3x3 minor fails"):
            InnerProduct(gram)


class TestClosedness:
    def test_sol3(self, sol3):
        assert is_closed(sol3, sol3_theta())
        assert not is_closed(sol3, Covector((F(1), F(0), F(0))))

    def test_heis3(self, heis3):
        assert is_closed(heis3, Covector((F(1), F(0), F(0))))
        assert not is_closed(heis3, Covector((F(0), F(0), F(1))))

    def test_closed_space_of_sl2_is_zero(self, sl2):
        for theta in closed_covectors(sl2, count=5, seed=3):
            assert theta.is_zero()

    def test_matches_the_fraction_sum_on_seeded_algebras_and_covectors(self):
        rng = random.Random(515)
        algebras = [make_sol3(), make_heis3(), make_sl2(), make_aff(), make_abelian(3)]
        algebras += [case[0] for case in corpus_cases()]
        algebras += [algebra for algebra, _ in random_metric_algebras(seed=77, count=12)]
        verdicts = []
        for algebra in algebras:
            n = algebra.dim
            thetas = [closed_covector(algebra, rng) for _ in range(2)]
            thetas += [
                Covector(tuple(small_rational(rng) if rng.random() < 0.5 else F(0) for _ in range(n)))
                for _ in range(3)
            ]
            # a closed covector plus a small multiple of e_k*: closed iff e_k* kills [g, g]
            k = rng.randrange(n)
            thetas.append(Covector(tuple(x + F(int(i == k), 7) for i, x in enumerate(thetas[0].coefficients))))
            for theta in thetas:
                verdict = reference.is_closed(reference.DenseBrackets(algebra).c, theta.coefficients)
                assert is_closed(algebra, theta) == verdict, (algebra, theta)
                verdicts.append(verdict)
        assert len(verdicts) >= 100 and {True, False} <= set(verdicts)


class TestNoGramInverseThroughInverse:
    def test_the_metric_and_weyl_build_never_call_inverse(self, monkeypatch):
        structure = random_triple_structure(random.Random(8))
        gram = ((F(2), F(1), F(0)), (F(1), F(2), F(1)), (F(0), F(1), F(2)))
        expected = reference.inverse(gram)

        def forbidden(*args):
            raise AssertionError("a Gram matrix was inverted through linalg.inverse")

        monkeypatch.setattr(linalg, "inverse", forbidden)
        monkeypatch.setattr(connections, "inverse", forbidden, raising=False)
        assert InnerProduct(gram).gram_inverse == expected
        metric = InnerProduct(structure.metric.gram)
        assert metric.gram_inverse == reference.inverse(metric.gram)
        conn = weyl_connection(structure.algebra, metric, structure.lee_form)
        assert conn == structure.connection()

    def test_the_trace_form_is_built_once_per_algebra(self):
        algebra = make_aff()
        assert trace_form(algebra) is trace_form(algebra)
        assert not is_unimodular(algebra) and trace_form(algebra).coefficients == (F(1), F(0))


class TestLeviCivita:
    def test_koszul_identity_on_corpus(self):
        for make in CORPUS:
            algebra = make()
            gram = InnerProduct.identity(algebra.dim)
            conn = levi_civita(algebra, gram)
            koszul = reference.koszul_form(algebra, gram)
            for i in range(algebra.dim):
                for j in range(algebra.dim):
                    for k in range(algebra.dim):
                        lhs = gram.value(
                            conn.apply(algebra.basis_vector(i), algebra.basis_vector(j)),
                            algebra.basis_vector(k),
                        )
                        rhs = koszul[i][j][k]
                        assert lhs == rhs

    def test_sol3_frozen_matrices(self, sol3):
        conn = levi_civita(sol3, InnerProduct.identity(3))
        assert conn.nabla == (
            matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
            matrix([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        )

    def test_heis3_half_twist(self, heis3):
        conn = levi_civita(heis3, InnerProduct.identity(3))
        assert conn.apply(vector([1, 0, 0]), vector([0, 1, 0])) == (F(0), F(0), F(1, 2))
        assert conn.apply(vector([0, 1, 0]), vector([1, 0, 0])) == (F(0), F(0), F(-1, 2))

    def test_abelian_connection_vanishes(self):
        conn = levi_civita(make_abelian(4), InnerProduct.identity(4))
        assert all(all(c == 0 for row in m for c in row) for m in conn.nabla)

    def test_properties_under_random_metrics(self):
        rng = random.Random(2718)
        for make in (make_sol3, make_heis3, make_aff):
            algebra = make()
            for _ in range(3):
                gram = random_spd_metric(rng, algebra.dim)
                conn = levi_civita(algebra, gram)
                assert is_torsion_free(algebra, conn)
                # metric compatibility: g(D_i y, z) + g(y, D_i z) = 0
                for i in range(algebra.dim):
                    m = conn.nabla[i]
                    for j in range(algebra.dim):
                        for k in range(algebra.dim):
                            s = gram.value(
                                mat_vec(m, algebra.basis_vector(j)),
                                algebra.basis_vector(k),
                            ) + gram.value(
                                algebra.basis_vector(j),
                                mat_vec(m, algebra.basis_vector(k)),
                            )
                            assert s == 0


    def test_seeded_random_structures_match_the_reference_formula(self):
        for algebra, metric in random_metric_algebras(seed=314, count=12):
            conn = levi_civita(algebra, metric)
            assert conn.nabla == reference.weyl(algebra, metric)
            assert is_torsion_free(algebra, conn)
            gram, n = metric.gram, algebra.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        # metric compatibility: g(D_i e_j, e_k) + g(e_j, D_i e_k) = 0
                        assert gram_entry_sum(gram, conn.nabla[i], j, k) == 0


class TestConnection:
    def test_entries_are_exact(self):
        conn = Connection.from_matrices(2, (((1, 0), (0, F(1, 2))), ((F(0), F(0)), (F(0), F(0)))))
        assert conn.nabla == (((F(1), F(0)), (F(0), F(1, 2))), ((F(0), F(0)), (F(0), F(0))))
        assert all(type(x) is F for m in conn.nabla for row in m for x in row)
        for bad in (0.5, 0.0, True):
            with pytest.raises(TypeError):
                Connection.from_matrices(2, (((F(1), F(0)), (F(0), bad)),) * 2)

    def test_from_matrices_rejects_a_wrong_shape(self):
        message = "connection needs one n x n matrix per basis direction"
        one, ragged = identity_matrix(2), ((F(0), F(0)), (F(0),))
        for nabla in ((one,), (one, identity_matrix(3)), (one, ragged)):
            with pytest.raises(ValueError, match=message):
                Connection.from_matrices(2, nabla)

    @pytest.mark.parametrize(
        "cls, dim, denominator, rows, message",
        [
            (Connection, 3, 1, ((),), "Connection rows must be a tuple of 3 operators"),
            (Connection, 2, 1, [(), ()], "Connection rows must be a tuple of 2 operators"),
            (Connection, 3, 0, ((),) * 3, "Connection denominator must be an integer >= 1, got 0"),
            (Connection, 2, -1, ((),) * 2, "Connection denominator must be an integer >= 1"),
            (Connection, 2, True, ((),) * 2, "Connection denominator must be an integer >= 1"),
            (Connection, 0, 1, (), "Connection dim must be an integer >= 1, got 0"),
            (Connection, 2.0, 1, ((),) * 2, "Connection dim must be an integer >= 1"),
            (CurvatureTensor, 3, 1, ((),), "CurvatureTensor rows must be a tuple of 3 operators"),
            (CurvatureTensor, 2, F(1), ((),), "CurvatureTensor denominator must be an integer"),
            (CurvatureTensor, True, 1, (), "CurvatureTensor dim must be an integer >= 1"),
        ],
    )
    def test_constructor_checks_dim_denominator_and_operator_count(
        self, cls, dim, denominator, rows, message
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(dim, denominator, rows)

    @pytest.mark.parametrize(
        "cls, dim, denominator, rows",
        [
            (Connection, 2, 2, (((0, ((0, 2),)),), ())),  # 2/2: not in lowest terms
            (Connection, 2, 1, (((0, ((0, 0),)),), ())),  # a zero entry
            (Connection, 2, 1, (((0, ((0, True),)),), ())),
            (Connection, 2, 1, (((0, ((0, 0.5),)),), ())),
            (Connection, 2, 1, (((0, ((0, F(1)),)),), ())),
            (Connection, 2, 1, (((0, ((2, 1),)),), ())),  # column out of range
            (Connection, 2, 1, (((-1, ((0, 1),)),), ())),  # row out of range
            (Connection, 2, 1, (((True, ((0, 1),)),), ())),
            (Connection, 2, 1, (((1, ((0, 1),)), (0, ((0, 1),))), ())),  # rows descending
            (Connection, 2, 1, (((0, ((1, 1), (0, 1))),), ())),  # columns descending
            (Connection, 2, 1, (((0, ((0, 1),)), (0, ((1, 1),))), ())),  # a row given twice
            (Connection, 2, 1, (((0, ()),), ())),  # an empty row
            (Connection, 2, 1, ([(0, ((0, 1),))], ())),  # a list for a tuple
            (Connection, 2, 1, (((0, [(0, 1)]),), ())),
            (Connection, 2, 1, ((0,), ())),
            (CurvatureTensor, 2, 2, ((),)),  # zero operators over 2
            (CurvatureTensor, 2, 1, (((0, ((0, 1), (1, 0))),),)),
        ],
    )
    def test_constructor_rejects_operators_outside_the_stored_form(self, cls, dim, denominator, rows):
        message = f"{cls.__name__} rows are not integer operators in lowest terms"
        with pytest.raises(ValueError, match=message):
            cls(dim, denominator, rows)

    def test_equal_operators_have_one_stored_form(self, sol3):
        """The operators of 2/2 e_1 (x) e_1* are those of `from_matrices`, whose
        stored form alone the constructor accepts, so equal connections compare
        equal; a float entry never reaches `is_parallel`."""
        nabla = (((F(1), F(0)), (F(0), F(0))), ((F(0), F(0)), (F(0), F(0))))
        conn = Connection.from_matrices(2, nabla)
        assert (conn.denominator, conn.rows) == (1, (((0, ((0, 1),)),), ()))
        assert Connection(2, 1, conn.rows) == conn
        with pytest.raises(ValueError):
            Connection(2, 2, (((0, ((0, 2),)),), ()))
        with pytest.raises(ValueError):
            is_parallel(sol3, Connection(3, 1, (((0, ((0, 0.5),)),), (), ())), Subspace.full(3))

    def test_constructor_accepts_what_the_engine_builds(self, sol3):
        conn = levi_civita(sol3, InnerProduct.identity(3))
        assert Connection(conn.dim, conn.denominator, conn.rows) == conn
        tensor = curvature(sol3, conn)
        assert CurvatureTensor(3, tensor.denominator, tensor.rows) == tensor
        assert CurvatureTensor(1, 1, ()).is_flat()


class TestWeyl:
    def test_zero_covector_reproduces_levi_civita(self):
        for make in CORPUS:
            algebra = make()
            gram = InnerProduct.identity(algebra.dim)
            zero = Covector(zero_vector(algebra.dim))
            assert weyl_connection(algebra, gram, zero).nabla == levi_civita(algebra, gram).nabla

    def test_sol3_frozen_matrices(self, sol3):
        conn = weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())
        assert conn.nabla == (
            matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
            matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
            matrix([[0, 0, 0], [0, 0, 2], [0, -2, 0]]),
        )

    def test_inner_product_route_agrees(self):
        rng = random.Random(99)
        for make in CORPUS:
            algebra = make()
            for gram in (InnerProduct.identity(algebra.dim), random_spd_metric(rng, algebra.dim)):
                for theta in closed_covectors(algebra, count=3, seed=17):
                    conn = weyl_connection(algebra, gram, theta)
                    koszul = reference.koszul_form(algebra, gram, theta)
                    for i in range(algebra.dim):
                        for j in range(algebra.dim):
                            for k in range(algebra.dim):
                                lhs = gram.value(
                                    mat_vec(conn.nabla[i], algebra.basis_vector(j)),
                                    algebra.basis_vector(k),
                                )
                                rhs = koszul[i][j][k]
                                assert lhs == rhs

    def test_conformal_compatibility_identity(self):
        for make in CORPUS:
            algebra = make()
            gram = InnerProduct.identity(algebra.dim)
            for theta in closed_covectors(algebra, count=3, seed=5):
                conn = weyl_connection(algebra, gram, theta)
                assert is_torsion_free(algebra, conn)
                for i in range(algebra.dim):
                    m = conn.nabla[i]
                    scale = 2 * theta.value(algebra.basis_vector(i))
                    for j in range(algebra.dim):
                        for k in range(algebra.dim):
                            lhs = gram.value(
                                mat_vec(m, algebra.basis_vector(j)), algebra.basis_vector(k)
                            ) + gram.value(
                                algebra.basis_vector(j), mat_vec(m, algebra.basis_vector(k))
                            )
                            assert lhs == scale * gram.value(
                                algebra.basis_vector(j), algebra.basis_vector(k)
                            )

    def test_seeded_random_structures_satisfy_the_defining_identities(self):
        rng = random.Random(2025)
        for _ in range(6):
            structure = random_triple_structure(rng)
            algebra, theta = structure.algebra, structure.lee_form
            metric = random_llt_metric(rng, algebra.dim)
            conn = weyl_connection(algebra, metric, theta)
            assert is_torsion_free(algebra, conn)
            gram, n = metric.gram, algebra.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        # conformal compatibility: (D_i g)(e_j, e_k) = -2 theta_i g_jk
                        expected = 2 * theta.coefficients[i] * gram[j][k]
                        assert gram_entry_sum(gram, conn.nabla[i], j, k) == expected

    def test_cross_check_names_the_first_disagreeing_entry(self, monkeypatch, sol3):
        original = connections._koszul_connection

        def perturbed(algebra, metric, theta):
            nabla = [[list(row) for row in m] for m in original(algebra, metric, theta).nabla]
            nabla[1][2][0] += 1  # the e_3-component of D_{e_2} e_1
            return Connection.from_matrices(algebra.dim, tuple(matrix(m) for m in nabla))

        monkeypatch.setattr(connections, "_koszul_connection", perturbed)
        with pytest.raises(RuntimeError, match=r"cross-check failed at \(1, 0, 2\)"):
            weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())

    def test_cross_check_catches_a_wrong_gram_inverse(self, monkeypatch):
        structure = random_triple_structure(random.Random(8))
        algebra, metric, theta = structure.algebra, structure.metric, structure.lee_form
        wrong_inverse = [list(row) for row in reference.inverse(metric.gram)]
        wrong_inverse[-1][-1] += 1
        wrong_inverse = matrix(wrong_inverse)
        # the build multiplies G^-1 into the matrices G D_i, so W in its place gives W G D_i
        good = reference.weyl(algebra, metric, theta)
        wrong = tuple(mat_mul(wrong_inverse, mat_mul(metric.gram, m)) for m in good)
        (i, j, k), name = reference.cross_check_witness(algebra, metric, theta, wrong)

        metric = InnerProduct(metric.gram)  # a copy whose stored inverse is replaced
        d, (rows,) = _lift((wrong_inverse,))
        object.__setattr__(metric, "lifted_inverse", (d, rows))
        message = f"cross-check failed at ({i}, {j}, {k}): the {name} identity fails"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            weyl_connection(algebra, metric, theta)

    def test_calls_neither_levi_civita_nor_the_metric_dual(self, monkeypatch, sol3):
        def forbidden(*args):
            raise AssertionError("the Weyl build calls a step it should not need")

        monkeypatch.setattr(connections, "levi_civita", forbidden)
        monkeypatch.setattr(InnerProduct, "sharp", forbidden)
        structure = random_triple_structure(random.Random(8))
        weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())
        weyl_connection(structure.algebra, structure.metric, structure.lee_form)

    def test_matches_the_dense_closed_form(self):
        """D_i = LC_i + theta_i I + e_i theta^T - theta^sharp g_i^T, entry by entry,
        where LC is the Koszul route without theta; the Koszul route with its
        theta terms must give the same matrices."""
        for algebra, metric, theta in pipeline_cases():
            n, th, gram = algebra.dim, theta.coefficients, metric.gram
            lc = reference.weyl(algebra, metric)
            sharp = reference.mat_vec(reference.inverse(gram), th)
            closed_form = tuple(
                tuple(
                    tuple(
                        lc[i][r][c]
                        + (th[i] if r == c else 0)
                        + (th[c] if r == i else 0)
                        - sharp[r] * gram[i][c]
                        for c in range(n)
                    )
                    for r in range(n)
                )
                for i in range(n)
            )
            assert reference.weyl(algebra, metric, theta) == closed_form
            conn = weyl_connection(algebra, metric, theta)
            assert conn.nabla == closed_form

    def test_coprime_metric_and_covector_denominators(self):
        """G over 2 * 5 and theta over 3 * 7: the Koszul build and its self-check
        read the two lifts over their own denominators and meet over the lcm."""
        rng = random.Random(2110)
        built = 0
        for algebra, _, theta in pipeline_cases():
            n, scale = algebra.dim, lcm(*(x.denominator for x in theta.coefficients))
            numerators = [x.numerator * (scale // x.denominator) for x in theta.coefficients]
            if not any(numerators):
                continue
            g = gcd(*numerators)  # a primitive row over 21 has denominator 21
            theta = Covector(tuple(F(x // g, 21) for x in numerators))
            while True:
                lower = [
                    [F(rng.randint(-3, 3)) if c < r else F(rng.randint(1, 3)) if c == r else F(0)
                     for c in range(n)]
                    for r in range(n)
                ]
                gram = reference.mat_mul(lower, reference.transpose(lower))
                metric = InnerProduct(tuple(tuple(x / 10 for x in row) for row in gram))
                if metric.lifted[0] == 10:
                    break
            assert theta._lifted[0] == 21 and is_closed(algebra, theta)
            expected = reference.weyl(algebra, metric, theta)
            assert weyl_connection(algebra, metric, theta).nabla == expected
            built += 1
        assert built > 20

    def test_makes_no_inner_product_value_calls(self, monkeypatch, sol3):
        calls = []
        original = InnerProduct.value

        def counting(self, x, y):
            calls.append(None)
            return original(self, x, y)

        monkeypatch.setattr(connections.InnerProduct, "value", counting)
        weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())
        structure = random_triple_structure(random.Random(8))
        weyl_connection(structure.algebra, structure.metric, structure.lee_form)
        assert calls == []

    def test_a_wrong_koszul_step_raises(self, monkeypatch, sol3):
        original = connections._koszul_matrices

        def perturbed(algebra, gram, theta):
            d, rows = original(algebra, gram, theta)
            k_mats = [[list(row) for row in _unlift(d, m, algebra.dim)] for m in rows]
            k_mats[2][0][1] += 1  # g(D_{e_3} e_2, e_1)
            d, rows = _lift(k_mats)
            return d, list(rows)

        monkeypatch.setattr(connections, "_koszul_matrices", perturbed)
        with pytest.raises(RuntimeError, match=r"cross-check failed at \(2, 0, 1\)"):
            weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())

    def test_builds_the_koszul_matrices_once(self, monkeypatch, sol3):
        calls = []
        original = connections._koszul_matrices

        def counting(algebra, gram, theta):
            calls.append(None)
            return original(algebra, gram, theta)

        structure = random_triple_structure(random.Random(8))
        monkeypatch.setattr(connections, "_koszul_matrices", counting)
        weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())
        assert len(calls) == 1
        weyl_connection(structure.algebra, structure.metric, structure.lee_form)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "entries, witness",
        [
            # D_{e_2} e_1 += e_3 and D_{e_2} e_3 -= e_1: skew, so still conformal
            (((1, 2, 0, 1), (1, 0, 2, -1)), r"\(1, 0, 2\): the torsion identity fails"),
            # D_{e_1} e_1 += e_2: T(e_1, e_1) = 0 whatever D_{e_1} e_1 is
            (((0, 1, 0, 1),), r"\(0, 0, 1\): the conformal identity fails"),
        ],
        ids=["torsion", "conformal"],
    )
    def test_each_identity_is_needed(self, monkeypatch, sol3, entries, witness):
        original = connections._koszul_connection

        def perturbed(algebra, metric, theta):
            nabla = [[list(row) for row in m] for m in original(algebra, metric, theta).nabla]
            for i, r, c, delta in entries:
                nabla[i][r][c] += delta
            return Connection.from_matrices(algebra.dim, tuple(matrix(m) for m in nabla))

        monkeypatch.setattr(connections, "_koszul_connection", perturbed)
        with pytest.raises(RuntimeError, match="cross-check failed at " + witness):
            weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())

    def test_rejects_non_closed_covector(self, sol3):
        with pytest.raises(ValueError, match="closed"):
            weyl_connection(sol3, InnerProduct.identity(3), Covector((F(1), F(0), F(0))))


class TestTorsion:
    def test_custom_connection_with_torsion(self):
        plane = make_abelian(2)
        nabla = (matrix([[0, 1], [0, 0]]), matrix([[0, 0], [0, 0]]))
        conn = Connection.from_matrices(2, nabla)
        t = torsion(plane, conn)
        assert t[pair_index(0, 1, 2)] == (F(1), F(0))
        assert not is_torsion_free(plane, conn)

    def test_matches_the_dense_formula(self):
        rng = random.Random(77)
        cases = [(make(), None) for make in CORPUS] + random_metric_algebras(78, 6)
        for algebra, _ in cases:
            for _ in range(3):
                conn = random_connection(rng, algebra.dim)
                assert torsion(algebra, conn) == reference.torsion(algebra, conn.nabla)
        for algebra, metric, theta in pipeline_cases():
            conn = weyl_connection(algebra, metric, theta)
            assert torsion(algebra, conn) == reference.torsion(algebra, conn.nabla)

    def test_rejects_a_connection_of_another_dimension(self, sol3):
        conn = levi_civita(make_abelian(2), InnerProduct.identity(2))
        with pytest.raises(ValueError, match="connection dimension does not match the algebra"):
            torsion(sol3, conn)


class TestCurvature:
    def test_abelian_is_flat(self):
        algebra = make_abelian(3)
        conn = levi_civita(algebra, InnerProduct.identity(3))
        assert curvature(algebra, conn).is_flat()

    def test_sol3_metric_curvature(self, sol3):
        conn = levi_civita(sol3, InnerProduct.identity(3))
        r = curvature(sol3, conn)
        # R(a, b)b = D_a D_b b - D_b D_a b - D_[a,b] b = 0 - 0 - D_b b = -a
        assert mat_vec(r.operator(1, 2), vector([0, 0, 1])) == (F(0), F(-1), F(0))
        assert not r.is_flat()

    def test_sol3_conformal_curvature_annihilates_u(self, sol3):
        conn = weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())
        r = curvature(sol3, conn)
        for i in range(3):
            for j in range(i + 1, 3):
                assert mat_vec(r.operator(i, j), vector([1, 0, 0])) == (F(0), F(0), F(0))

    def test_antisymmetry_and_bilinearity(self, sol3):
        rng = random.Random(12)
        conn = weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())
        r = curvature(sol3, conn)
        for _ in range(10):
            x = vector([rng.randint(-4, 4) for _ in range(3)])
            y = vector([rng.randint(-4, 4) for _ in range(3)])
            forward = r.evaluate(x, y)
            backward = r.evaluate(y, x)
            assert forward == tuple(tuple(-c for c in row) for row in backward)
            assert all(c == 0 for row in r.evaluate(x, x) for c in row)

    def test_first_bianchi_for_corpus_conformal_connections(self):
        for make in CORPUS:
            algebra = make()
            gram = InnerProduct.identity(algebra.dim)
            for theta in closed_covectors(algebra, count=3, seed=23):
                conn = weyl_connection(algebra, gram, theta)
                r = curvature(algebra, conn)
                n = algebra.dim
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            cyc = tuple(
                                a + b + c
                                for a, b, c in zip(
                                    mat_vec(r.operator(i, j), algebra.basis_vector(k)),
                                    mat_vec(r.operator(j, k), algebra.basis_vector(i)),
                                    mat_vec(r.operator(k, i), algebra.basis_vector(j)),
                                )
                            )
                            assert all(c == 0 for c in cyc)

    def test_operator_rejects_an_index_out_of_range(self, sol3):
        r = curvature(sol3, levi_civita(sol3, InnerProduct.identity(3)))
        with pytest.raises(ValueError):
            r.operator(0, 7)
        with pytest.raises(ValueError):
            r.operator(7, 7)

    def test_rejects_a_connection_of_another_dimension(self, sol3):
        plane = make_abelian(2)
        mismatched = (
            (plane, levi_civita(sol3, InnerProduct.identity(3))),
            (sol3, levi_civita(plane, InnerProduct.identity(2))),
        )
        for algebra, conn in mismatched:
            with pytest.raises(ValueError, match="connection dimension does not match the algebra"):
                curvature(algebra, conn)

    def test_evaluate_rejects_a_short_vector(self, sol3):
        r = curvature(sol3, levi_civita(sol3, InnerProduct.identity(3)))
        with pytest.raises(ValueError, match="vector length"):
            r.evaluate(vector([1, 0]), vector([0, 1, 0]))

    def test_evaluate_rejects_a_long_vector(self, sol3):
        r = curvature(sol3, levi_civita(sol3, InnerProduct.identity(3)))
        with pytest.raises(ValueError, match="vector length"):
            r.evaluate(vector([1, 0, 0]), vector([0, 1, 0, 5]))

    def test_matches_the_dense_formula(self):
        for algebra, metric, theta in pipeline_cases():
            for conn in (levi_civita(algebra, metric), weyl_connection(algebra, metric, theta)):
                assert curvature(algebra, conn).operators == reference.curvature(algebra, conn.nabla)

    def test_joint_kernel_is_the_kernel_of_every_operator_row(self):
        for algebra, metric, theta in pipeline_cases():
            r = curvature(algebra, weyl_connection(algebra, metric, theta))
            stacked = tuple(row for op in r.operators for row in op)
            assert r.kernel == Subspace.from_vectors(reference.kernel(stacked, algebra.dim), algebra.dim)

    def test_flat_subspace_verdict_matches_annihilation_on_sol3(self, sol3):
        def annihilates(curv, s):
            return all(
                is_zero_vector(mat_vec(op, row)) for op in curv.operators for row in s.basis
            )

        metric = InnerProduct.identity(3)
        verdicts = set()
        for conn in (levi_civita(sol3, metric), weyl_connection(sol3, metric, sol3_theta())):
            r = curvature(sol3, conn)
            for s in brute_force_subspaces(3):
                expected = is_parallel(sol3, conn, s) and annihilates(r, s)
                assert is_flat_subspace(sol3, conn, r, s) == expected
                assert r.kernel.contains_subspace(s) == annihilates(r, s)
                verdicts.add(expected)
        assert verdicts == {True, False}


def lifted_invariants(d, rows, mats):
    """The lift is exact, in lowest terms, and holds nonzero ascending entries only."""
    n = len(mats[0]) if mats else 0
    assert tuple(_unlift(d, m, n) for m in rows) == tuple(mats)
    assert gcd(d, *(x for m in rows for _, terms in m for _, x in terms)) == 1
    for m in rows:
        assert [r for r, _ in m] == sorted({r for r, _ in m})
        for _, terms in m:
            assert terms and all(x for _, x in terms)
            assert [c for c, _ in terms] == sorted({c for c, _ in terms})


class TestIntegerLift:
    def test_connections_round_trip_through_their_lift(self):
        rng = random.Random(4242)
        for algebra, metric, theta in pipeline_cases():
            for conn in (levi_civita(algebra, metric), weyl_connection(algebra, metric, theta)):
                d, rows = conn.denominator, conn.rows
                lifted_invariants(d, rows, conn.nabla)
                # the lift weyl_connection and levi_civita record is the one read off nabla
                assert _lift(conn.nabla) == (d, rows)
            conn = random_connection(rng, algebra.dim)
            lifted_invariants(conn.denominator, conn.rows, conn.nabla)

    def test_curvature_rows_are_the_lift_of_its_operators(self):
        for algebra, metric, theta in pipeline_cases():
            for conn in (levi_civita(algebra, metric), weyl_connection(algebra, metric, theta)):
                r = curvature(algebra, conn)
                lifted_invariants(r.denominator, r.rows, r.operators)
                assert _lift(r.operators) == (r.denominator, r.rows)

    def test_built_connections_equal_the_checked_constructor(self):
        for algebra, metric, theta in pipeline_cases():
            for conn in (levi_civita(algebra, metric), weyl_connection(algebra, metric, theta)):
                checked = Connection.from_matrices(conn.dim, conn.nabla)
                assert conn == checked and conn.nabla == checked.nabla
                assert all(type(x) is F for m in conn.nabla for row in m for x in row)
                assert (conn.denominator, conn.rows) == (checked.denominator, checked.rows)

    def test_empty_and_zero_families(self):
        assert _lift(()) == (1, ())
        zero = ((F(0), F(0)), (F(0), F(0)))
        assert _lift((zero, zero)) == (1, ((), ()))
        assert _unlift(1, (), 2) == zero
        mixed = ((F(1, 2), F(0)), (F(-3), F(1, 3)))
        assert _lift((mixed,)) == (6, (((0, ((0, 3),)), (1, ((0, -18), (1, 2)))),))


class TestDenseOracles:
    def test_levi_civita_matches_the_reference_formula_on_every_case(self):
        for algebra, metric, _ in pipeline_cases():
            assert levi_civita(algebra, metric).nabla == reference.weyl(algebra, metric)

    def test_operator_evaluate_and_flatness_match_the_dense_tensor(self):
        rng = random.Random(5151)
        flat = set()
        for algebra, metric, theta in pipeline_cases():
            n = algebra.dim
            for conn in (levi_civita(algebra, metric), weyl_connection(algebra, metric, theta)):
                r = curvature(algebra, conn)
                dense = reference.curvature(algebra, conn.nabla)
                for i, j in product(range(n), repeat=2):
                    if i < j:
                        expected = dense[pair_index(i, j, n)]
                    elif i > j:
                        expected = tuple(tuple(-x for x in row) for row in dense[pair_index(j, i, n)])
                    else:
                        expected = tuple(zero_vector(n) for _ in range(n))
                    assert r.operator(i, j) == expected
                x = vector([rng.randint(-3, 3) for _ in range(n)])
                y = tuple(small_rational(rng) for _ in range(n))
                combined = [[F(0)] * n for _ in range(n)]
                for (i, j), op in zip(pairs(n), dense):
                    coeff = x[i] * y[j] - x[j] * y[i]
                    for row, op_row in zip(combined, op):
                        for c, v in enumerate(op_row):
                            row[c] += coeff * v
                assert r.evaluate(x, y) == tuple(map(tuple, combined))
                assert r.is_flat() == all(not any(row) for op in dense for row in op)
                flat.add(r.is_flat())
        assert flat == {True, False}

    def test_directional_and_evaluate_match_a_dense_combination(self):
        rng = random.Random(5252)
        for algebra, metric, theta in pipeline_cases():
            n = algebra.dim
            conn = weyl_connection(algebra, metric, theta)
            r = curvature(algebra, conn)
            for _ in range(3):
                x = tuple(F(rng.randint(-9, 9) * 10**12, rng.randint(1, 10**6)) for _ in range(n))
                y = tuple(small_rational(rng) if rng.random() < 0.6 else F(0) for _ in range(n))
                assert conn.directional(x) == reference.combination(x, conn.nabla, n)
                assert conn.directional(y) == reference.combination(y, conn.nabla, n)
                coeffs = [x[i] * y[j] - x[j] * y[i] for i, j in pairs(n)]
                assert r.evaluate(x, y) == reference.combination(coeffs, r.operators, n)
        assert conn.directional(zero_vector(n)) == tuple(zero_vector(n) for _ in range(n))

    def test_directional_and_evaluate_reject_inexact_coefficients(self, sol3):
        conn = levi_civita(sol3, InnerProduct.identity(3))
        r = curvature(sol3, conn)
        assert conn.rows[0] and not r.is_flat()
        for bad in (0.5, True):
            with pytest.raises(TypeError):
                conn.directional((bad, F(0), F(0)))
        with pytest.raises(TypeError):
            r.evaluate((0.5, F(0), F(0)), (F(1), F(2), F(3)))
        # a flat connection has only zero operators, which skip nothing they read
        plane = make_abelian(2)
        flat = levi_civita(plane, InnerProduct.identity(2))
        r = curvature(plane, flat)
        assert not any(flat.rows) and r.is_flat()
        exact, one = (F(1, 2), F(1, 4)), (F(1), F(0))
        assert flat.directional(exact) == ((F(0), F(0)), (F(0), F(0)))
        assert flat.apply(exact, one) == r.evaluate(exact, one)[0] == (F(0), F(0))
        for bad in ((0.5, 0.25), (True, F(0))):
            with pytest.raises(TypeError):
                flat.directional(bad)
            for x, y in ((bad, one), (one, bad)):
                with pytest.raises(TypeError):
                    flat.apply(x, y)
                with pytest.raises(TypeError):
                    r.evaluate(x, y)

    def test_kernel_matches_the_kernel_of_the_distinct_fraction_rows(self):
        for algebra, metric, theta in pipeline_cases():
            conn = weyl_connection(algebra, metric, theta)
            rows = dict.fromkeys(
                row for op in reference.curvature(algebra, conn.nabla) for row in op if any(row)
            )
            expected = Subspace.from_vectors(reference.kernel(tuple(rows), algebra.dim), algebra.dim)
            assert curvature(algebra, conn).kernel == expected


class TestSelfCheckMutations:
    def test_a_mutated_connection_fails_where_the_dense_check_names(self, monkeypatch):
        rng = random.Random(7373)
        original = connections._koszul_connection
        seen = set()
        for algebra, metric, theta in [c for c in pipeline_cases() if c[0].dim <= 6]:
            n = algebra.dim
            good = weyl_connection(algebra, metric, theta).nabla
            for i, change in mutations(rng, metric, n):

                def bump(nabla, i=i, change=change):
                    out = list(nabla)
                    out[i] = tuple(
                        tuple(x + y for x, y in zip(row, delta)) for row, delta in zip(nabla[i], change)
                    )
                    return tuple(out)

                def perturbed(algebra, metric, theta, bump=bump):
                    nabla = bump(original(algebra, metric, theta).nabla)
                    return Connection.from_matrices(algebra.dim, nabla)

                witness = reference.cross_check_witness(algebra, metric, theta, bump(good))
                monkeypatch.setattr(connections, "_koszul_connection", perturbed)
                if witness is None:  # the skew change of a diagonal entry is no change
                    assert weyl_connection(algebra, metric, theta).nabla == good
                    continue
                (wi, wj, wk), name = witness
                seen.add(name)
                with pytest.raises(RuntimeError) as failure:
                    weyl_connection(algebra, metric, theta)
                assert str(failure.value) == (
                    f"conformal connection cross-check failed at ({wi}, {wj}, {wk}): "
                    f"the {name} identity fails"
                )
            monkeypatch.setattr(connections, "_koszul_connection", original)
        assert seen == {"torsion", "conformal"}


class TestSparseStorage:
    def test_curvature_stores_the_nonzero_rows_and_builds_no_dense_operator(self, monkeypatch):
        s = scaling_family(30)
        algebra = s.algebra
        assert algebra.dim == 30
        conn = weyl_connection(algebra, s.metric, s.lee_form)
        built = []
        original = connections._unlift

        def counting(d, rows, size):
            built.append(None)
            return original(d, rows, size)

        monkeypatch.setattr(connections, "_unlift", counting)
        r = curvature(algebra, conn)
        assert not r.is_flat()
        assert r.kernel.dim == 15
        assert built == [] and "operators" not in r.__dict__
        stored = sum(len(op) for op in r.rows)
        nonzero = sum(1 for op in r.operators for row in op if any(row))
        assert len(built) == len(r.operators) == 30 * 29 // 2
        assert stored == nonzero
        # the dense view holds 30 rows per operator; fewer than one in ten is stored
        assert stored < len(r.operators) * 30 // 10
