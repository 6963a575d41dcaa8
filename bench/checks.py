"""Independent correctness checks for the benchmark's operations.

Every check recomputes what the output should be from closed forms and
exact integer arithmetic written here, never from `covest` and never from
stored outputs.  Each check returns a list of problems; an empty list
means the output passed.

D(m) = (1/2)(1 - cos(pi/(m+2))) is the optimal covariant phase error with
m+1 levels.  It is the error of every exact phase design, of every odd-n
SU(2) design (m = blocks - 1), and it brackets every even-n SU(2) design
with b blocks in use: D(b-1) <= error <= D(b-2).
"""

import math

import numpy as np

# Relative tolerance for values the program computes by a dense eigensolve
# or a sum over O(n) terms; the closed forms here are exact to roundoff.
REL_TOL = 1e-8
# Absolute tolerance on amplitudes of unit-norm vectors.
AMP_TOL = 1e-8
# Monte Carlo gate: |mean - D| / se must stay below this.
Z_GATE = 4.0
Z_FAILURE = "|mean - D| / se"


def optimal_phase_error(m):
    """D(m): the minimum covariant phase error with m+1 levels."""
    return 0.5 * (1.0 - math.cos(math.pi / (m + 2)))


def neighbour_error(amplitudes):
    """(1/2)(1 - sum a_k a_{k+1}), the optimal-seed error of an amplitude profile."""
    a = np.asarray(amplitudes, dtype=float)
    return 0.5 * (1.0 - float(np.dot(a[:-1], a[1:])))


def exact_phase_profile(n):
    """Normalized a_k ∝ sin(pi (k+1)/(n+2)), k = 0..n."""
    s = np.sin(math.pi * (np.arange(n + 1) + 1.0) / (n + 2))
    return s / np.linalg.norm(s)


def sine_profile(n):
    """The sine profile sqrt(2/(n+1)) sin(pi (k+1/2)/(n+1)), k = 0..n."""
    k = np.arange(n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * (k + 0.5) / (n + 1))


def su2_spectrum(n):
    """[(dim, multiplicity)] of the n-qubit tensor power, from binomials.

    The spin-J irrep (dim 2J+1) appears C(n, n/2 - J) - C(n, n/2 - J - 1)
    times, for J = n/2, n/2 - 1, ... down to 0 or 1/2.
    """
    out = []
    for dim in range(n + 1, 0, -2):
        k = (n + 1 - dim) // 2  # n/2 - J
        out.append((dim, math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)))
    return sorted(out)


def _close(value, expected, rel=REL_TOL):
    return abs(value - expected) <= rel * abs(expected) + 1e-15


def _unit_norm(amps, problems, label="amplitudes"):
    norm = float(np.sum(np.square(amps)))
    if abs(norm - 1.0) > 1e-10:
        problems.append(f"{label} have squared norm {norm!r}, not 1")


def _su2_bracket(error, b, problems, label):
    """Even-n error with b blocks in use lies in [D(b-1), D(b-2)]."""
    lo = optimal_phase_error(b - 1)
    hi = optimal_phase_error(b - 2) if b >= 2 else 1.0
    if not (lo * (1 - REL_TOL) <= error <= hi * (1 + REL_TOL)):
        problems.append(f"{label} {error!r} outside [D({b - 1}), D({b - 2})] = [{lo!r}, {hi!r}]")


def check_phase_opt(params, result):
    n, method = params["n"], params.get("method", "exact")
    amps = np.asarray(result["amplitudes"], dtype=float)
    problems = []
    if amps.size != n + 1:
        return [f"expected {n + 1} amplitudes, got {amps.size}"]
    _unit_norm(amps, problems)
    error = result["error"]
    if method == "exact":
        want, profile = optimal_phase_error(n), exact_phase_profile(n)
    else:
        profile = sine_profile(n)
        want = neighbour_error(profile)
    if not _close(error, want):
        problems.append(f"error {error!r} != {want!r}")
    dev = float(np.max(np.abs(amps - profile)))
    if dev > AMP_TOL:
        problems.append(f"amplitudes deviate from the {method} profile by {dev:.3g}")
    if not _close(error, neighbour_error(amps)):
        problems.append(f"error {error!r} != (1/2)(1 - sum a_k a_k+1) = {neighbour_error(amps)!r}")
    return problems


def check_su2_design(params, result):
    n, mode = params["n"], params.get("mode", "external")
    problems = []
    spectrum = su2_spectrum(n)
    blocks = result["blocks"]
    got = [(b["dim"], b["multiplicity"]) for b in blocks]
    if got != spectrum:
        return [f"blocks {got[:3]}... differ from the binomial spectrum {spectrum[:3]}..."]
    usable = [dim for dim, mult in spectrum if mult >= dim]
    for b in blocks:
        if b["feasible"] != (b["multiplicity"] >= b["dim"]):
            problems.append(f"block dim {b['dim']}: feasible flag {b['feasible']} is wrong")
    if result["feasibility"]["usable_dims"] != usable:
        problems.append("usable_dims differ from the blocks with multiplicity >= dim")
    amps = np.array([b["amplitude"] for b in blocks], dtype=float)
    _unit_norm(amps, problems)
    if np.any(amps < 0.0):
        problems.append("negative block amplitude")
    active = amps
    if mode == "self-entangled":
        in_use = np.array([b["feasible"] for b in blocks])
        if np.any(amps[~in_use] != 0.0):
            problems.append("nonzero amplitude on a block whose multiplicity < dim")
        active = amps[in_use]
    b_in_use = active.size
    error = result["error"]
    if n % 2 == 1:
        want = optimal_phase_error(b_in_use - 1)
        if not _close(error, want):
            problems.append(f"odd-n error {error!r} != D({b_in_use - 1}) = {want!r}")
        if not _close(error, neighbour_error(active)):
            problems.append(f"odd-n error {error!r} != (1/2)(1 - sum a_k a_k+1)")
    else:
        _su2_bracket(error, b_in_use, problems, "even-n error")
        floor = neighbour_error(active)
        if error < floor * (1 - REL_TOL):
            problems.append(f"even-n error {error!r} below (1/2)(1 - sum a_k a_k+1) = {floor!r}")
    achievable = result["feasibility"]["achievable_error"]
    if n % 2 == 1:
        if not _close(achievable, optimal_phase_error(len(usable) - 1)):
            problems.append(f"achievable_error {achievable!r} != D({len(usable) - 1})")
    else:
        _su2_bracket(achievable, len(usable), problems, "achievable_error")
    return problems


def check_scaling(params, result):
    rows = result["rows"]
    max_n = params["max_n"]
    problems = []
    if [r["n"] for r in rows] != list(range(1, max_n + 1)):
        return [f"rows cover n = {[r['n'] for r in rows][:5]}..., not 1..{max_n}"]
    for r in rows:
        n = r["n"]
        if not _close(r["phase_exact"], optimal_phase_error(n)):
            problems.append(f"n={n}: phase_exact {r['phase_exact']!r} != D({n})")
        if not _close(r["phase_bdm"], neighbour_error(sine_profile(n))):
            problems.append(f"n={n}: phase_bdm {r['phase_bdm']!r} is not the sine-profile error")
        if not _close(r["phase_asymptote"], math.pi**2 / (4 * n * n)):
            problems.append(f"n={n}: phase_asymptote is not pi^2/(4n^2)")
        if not _close(r["su2_asymptote"], math.pi**2 / (n * n)):
            problems.append(f"n={n}: su2_asymptote is not pi^2/n^2")
        if n % 2 == 1:
            if not _close(r["su2_error"], optimal_phase_error((n + 1) // 2 - 1)):
                problems.append(f"n={n}: odd su2_error {r['su2_error']!r} != D(d-1)")
        else:
            _su2_bracket(r["su2_error"], n // 2 + 1, problems, f"n={n}: even su2_error")
    return problems


VERIFY_IDENTITIES = {
    "single-irrep integral",
    "su2 character kernel",
    "u1 phase kernel",
    "kernel equivalence",
}


def check_verify_integrals(params, result):
    tol = params.get("tol", 1e-10)
    problems = []
    names = {row["identity"] for row in result["identities"]}
    if names != VERIFY_IDENTITIES:
        problems.append(f"identities {sorted(names)} differ from {sorted(VERIFY_IDENTITIES)}")
    for row in result["identities"]:
        dev = row["worst_abs_deviation"]
        if not (0.0 <= dev <= tol) or row["pass"] is not True:
            problems.append(f"{row['identity']}: deviation {dev!r} > {tol!r}")
    if result["pass"] is not True:
        problems.append("verify-integrals reports pass = false")
    return problems


def simulate_target(protocol, n):
    """The exact mean error the sampler should reproduce."""
    if protocol == "phase":
        return optimal_phase_error(n)
    return optimal_phase_error((n + 1) // 2 - 1)


def check_simulate(params, result):
    target = simulate_target(params["protocol"], params["n"])
    problems = []
    if not _close(result["closed_form"], target):
        problems.append(f"closed_form {result['closed_form']!r} != {target!r}")
    mean, se = result["empirical_mean_error"], result["standard_error"]
    if not se > 0.0:
        return problems + [f"standard error {se!r} is not positive"]
    z = (mean - target) / se
    if not abs(z) < Z_GATE:
        problems.append(f"{Z_FAILURE} = {abs(z):.2f} >= {Z_GATE}")
    if result["pass"] != (abs(result["z_score"]) < Z_GATE):
        problems.append("pass flag disagrees with the reported z-score")
    return problems


def haar_deviations(j, matrices, irreps, characters):
    """Worst deviations of irrep matrices and characters from closed forms.

    theta comes from the 2x2 trace, Tr = 2 cos(theta/2); the character of
    the j-dimensional irrep is sin(j theta/2) / sin(theta/2).
    """
    theta = 2.0 * np.arccos(np.clip((matrices[:, 0, 0] + matrices[:, 1, 1]).real / 2.0, -1.0, 1.0))
    s = np.sin(theta / 2.0)
    ok = np.abs(s) > 1e-8
    chi = np.sin(j * theta[ok] / 2.0) / s[ok]
    trace = np.trace(irreps, axis1=1, axis2=2)
    # In chunks, so that the check adds little to the process's peak RSS.
    unitarity = max(
        float(np.max(np.abs(v @ np.conj(np.swapaxes(v, 1, 2)) - np.eye(j))))
        for v in np.array_split(irreps, max(1, len(irreps) // 256))
    )
    return {
        "trace": float(np.max(np.abs(trace[ok] - chi))),
        "character": float(np.max(np.abs(np.asarray(characters)[ok] - chi))),
        "unitarity": unitarity,
        "shape": list(irreps.shape) == [len(matrices), j, j],
    }


def check_haar(params, result):
    if len(result["deviations"]) != len(params["js"]):
        return [f"{len(result['deviations'])} irrep batches checked, {len(params['js'])} expected"]
    problems = []
    for j, dev in zip(params["js"], result["deviations"]):
        tol = 1e-9 * j
        if not dev["shape"]:
            problems.append(f"j={j}: irrep batch has the wrong shape")
        for key in ("trace", "character", "unitarity"):
            if not dev[key] <= tol:
                problems.append(f"j={j}: {key} deviation {dev[key]:.3g} > {tol:.1g}")
    return problems


CHECKS = {
    "phase-opt": check_phase_opt,
    "su2-design": check_su2_design,
    "scaling": check_scaling,
    "verify-integrals": check_verify_integrals,
    "simulate": check_simulate,
    "haar-irreps": check_haar,
}
