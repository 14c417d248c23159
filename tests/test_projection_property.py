"""Property checks: the p > 2 Newton projection against the IRLS loop it replaced."""
import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab.recovery import (IRLS_MAX_ITERS, IRLS_REL_TOL, IRLS_WEIGHT_FLOOR,
                             DiscreteInstance, _newton_direction, _weighted_lstsq,
                             chebyshev_projection, norming_functional_action)


def irls_reference(inst, subset, init=None, max_iters=IRLS_MAX_ITERS):
    """The damped IRLS loop every p != 2 projection ran before the Newton
    steps: (coefficients, residual, residual norm, converged, iterations)."""
    b = inst.f_values
    a = inst.dict_values[:, list(subset)]
    c = _weighted_lstsq(a, b, inst.weights)[0] if init is None \
        else np.asarray(init, dtype=complex)
    r = b - a @ c
    phi = inst.norm(r)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if phi == 0.0:
            converged = True
            break
        omega = np.maximum(np.abs(r), IRLS_WEIGHT_FLOOR) ** (inst.p - 2.0)
        c_step, _ = _weighted_lstsq(a, b, inst.weights * omega)
        step = 1.0
        cand, phi_cand = c, phi
        improved = False
        for _ in range(50):
            trial = c + step * (c_step - c)
            r_trial = b - a @ trial
            phi_trial = inst.norm(r_trial)
            if phi_trial <= phi * (1.0 + 1e-15):
                cand, r, phi_cand = trial, r_trial, phi_trial
                improved = True
                break
            step *= 0.5
        if not improved:
            converged = True
            break
        change = (phi - phi_cand) / max(phi, 1e-300)
        c, phi = cand, phi_cand
        if change <= IRLS_REL_TOL:
            converged = True
            break
    return c, r, phi, converged, iterations


def projection_instance(seed, m, n, v, p, kind):
    """A random weighted instance; "exact" puts the target in the span of
    the first v columns, "near" within 1e-7 of it, "partial" fits it
    exactly on all but a few nodes, "real" keeps every value real."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if kind == "real":
        a, b = a.real + 0j, b.real + 0j
    elif kind == "exact":
        b = a[:, :v] @ (rng.standard_normal(v) + 1j * rng.standard_normal(v))
    elif kind == "partial":
        off = rng.random(m) < 0.2
        b = a[:, :v] @ (rng.standard_normal(v) + 1j * rng.standard_normal(v)) + off * b
    elif kind == "near":
        b = a[:, :v] @ (rng.standard_normal(v) + 1j * rng.standard_normal(v)) + 1e-7 * b
    w = rng.uniform(0.1, 1.0, m)
    return DiscreteInstance(a, b, w / w.sum(), p)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), v=st.integers(1, 6),
       extra=st.integers(0, 30), p=st.floats(2.0, 10.0, exclude_min=True),
       kind=st.sampled_from(["random", "real", "exact", "near", "partial"]),
       warm=st.booleans())
def test_newton_projection_is_no_worse_than_irls(seed, v, extra, p, kind, warm):
    # extra < v gives m < 2v nodes for the 2v real unknowns
    m = v + extra
    inst = projection_instance(seed, m, v + 2, v, p, kind)
    subset = tuple(range(v))
    init = None
    if warm:    # a WCGA-style warm start: the first v - 1 columns' fit, then 0
        init = np.append(chebyshev_projection(inst, subset[:-1]).coefficients, 0.0)
    got = chebyshev_projection(inst, subset, init=init)
    ref_phi = irls_reference(inst, subset, init=init)[2]
    b_norm = inst.norm(inst.f_values)
    assert got.residual_norm <= ref_phi * (1 + 1e-12) + 1e-12 * b_norm
    assert got.converged
    fit = inst.f_values - inst.dict_values[:, subset] @ got.coefficients
    assert np.abs(got.residual - fit).max() <= 1e-13 * np.abs(inst.f_values).max()
    assert got.residual_norm == inst.norm(got.residual)
    if got.residual_norm > 1e-8 * b_norm:
        # one ulp of a coefficient moves the residual by about eps ||b||, and
        # the action by (p - 1) eps ||b|| / ||r||: no floating-point
        # coefficient vector gets below that on a near-exact fit
        floor = 16 * (p - 1) * np.finfo(float).eps * b_norm / got.residual_norm
        for j in subset:
            action = norming_functional_action(got.residual, inst.dict_values[:, j],
                                               p, inst.weights)
            assert abs(action) <= 1e-8 + floor


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), v=st.integers(1, 5), m=st.integers(1, 12),
       p=st.floats(2.0, 10.0, exclude_min=True))
def test_newton_step_is_the_minimum_norm_solution(seed, v, m, p):
    # residuals vanish on a random set of nodes, so the system is singular
    # whenever fewer than v nodes keep one; the reference builds the block
    # system entry by entry and takes lstsq's minimum-norm solution
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, v)) + 1j * rng.standard_normal((m, v))
    r = rng.uniform(0.5, 2.0, m) * np.exp(2j * np.pi * rng.random(m))
    r[rng.random(m) < 0.6] = 0.0
    r[0] = 1.0
    w = rng.uniform(0.1, 1.0, m)
    w /= w.sum()
    phi = (w @ np.abs(r) ** p) ** (1 / p)
    s = w * np.abs(r) ** (p - 2)
    unit = np.divide(r, np.abs(r), out=np.zeros_like(r), where=r != 0)
    h = (p * p / 4) * a.conj().T @ (s[:, None] * a)
    k = (p / 2) * (p / 2 - 1) * a.conj().T @ ((s * unit * unit)[:, None] * a.conj())
    g = -(p / 2) * a.conj().T @ (s * r)
    ref = np.linalg.lstsq(np.block([[h, k], [k.conj(), h.conj()]]),
                          -np.concatenate([g, g.conj()]), rcond=None)[0]
    assert np.abs(ref[v:] - ref[:v].conj()).max() <= 1e-9 * np.abs(ref).max()
    got = _newton_direction(a, r, w, p, phi)
    assert np.abs(got - ref[:v]).max() <= 1e-9 * np.abs(ref).max()


def test_newton_projection_takes_fewer_steps_than_irls():
    # the recover benchmark's exponent on well-posed instances
    newton = irls = 0
    for seed in range(20):
        inst = projection_instance(seed, 64, 6, 4, 4.0, "random")
        newton += chebyshev_projection(inst, (0, 1, 2, 3)).iterations
        irls += irls_reference(inst, (0, 1, 2, 3))[4]
    assert newton * 2 < irls


def test_p_at_most_2_projections_are_pinned_bit_for_bit():
    # recorded before the p > 2 Newton steps: p = 1.5 runs IRLS and p = 2
    # one weighted least-squares solve, cold and warm started
    digest = hashlib.sha256()
    for p in (1.5, 2.0):
        for seed in range(8):
            inst = projection_instance(seed, 24 + seed, 7, 4, p,
                                       ("random", "real", "partial")[seed % 3])
            for subset in ((0,), (1, 4), (0, 2, 3, 6)):
                for init in (None, np.full(len(subset), 0.5 - 0.25j)):
                    res = chebyshev_projection(inst, subset, init=init)
                    for part in (res.coefficients, res.residual):
                        digest.update(np.ascontiguousarray(part).tobytes())
                    digest.update(np.float64(res.residual_norm).tobytes())
                    digest.update(bytes([res.converged, res.iterations % 256]))
    assert digest.hexdigest() == (
        "63fded3c923ab459f3e2da791b6d3c89292bdd3f4f739acdbf948b31c2670ca9")
