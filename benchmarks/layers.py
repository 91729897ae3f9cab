"""Per-layer probes for the traced run: every nilmag layer timed from outside.

Each probe calls one layer's public functions on inputs drawn from the seed
with the workloads' generators, and reports a median over repeats.  Call
counts come from a second, counted pass, so the wrappers never inflate the
timings.  The sampling probes use ROADMAP item 1's fixed 1001-sample grids,
so the closed-form/oracle ratios are the ROADMAP bar itself.  To print them:

    python3 benchmarks/run.py --workload type1-dense --seed 0 --seconds 1 --trace 1
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wk
from spans import Tracer, counter_targets

PROBE_T = 10.0
PROBE_POINTS = 1001
H3_BRANCHES = {"cn": "cn", "dn+": "dn_pos", "dn-": "dn_neg", "sech+": "sech_pos",
               "sech-": "sech_neg", "linear": "linear"}


def timed(fn, min_s: float = 0.2, max_reps: int = 25) -> float:
    """Median seconds per call of fn(), repeated until min_s has passed."""
    times, spent = [], 0.0
    while not times or (spent < min_s and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times)


def _type1_inputs(rng):
    """(label, alg spec, algebra, force matrix, x0, charge) for presets and structures."""
    specs = {label: (family, n) for label, (family, n, _) in wk.DENSE_PRESETS.items()}
    for label, (dim, brackets) in wk.sweep_structures((0.8, 1.3)).items():
        specs[label] = (dim, brackets, wk.random_metric(rng, dim))
    out = []
    for label, spec in specs.items():
        alg = wk.build_algebra(spec)
        x0, charge = wk._velocity(rng, alg.dim), wk._charge(rng)
        out.append((label, spec, alg, wk.closed_type1(rng, alg, x0, charge), x0, charge))
    return out


def probe(seed: int, tmp: str) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    from nilmag import (
        H5Force, InitialCondition, LorentzForce, check_closed, exactness_test, lambda_periodicity,
        periodic_at_energy, solve_h5, solve_type1, solve_type2_general, spectral_decompose,
        verify_periodic,
    )
    from nilmag import cli, specfun
    from nilmag.oracle import reconstruct_group

    rng = np.random.default_rng([seed, 99])
    out = {}
    counter = Tracer(False)
    targets = counter_targets()
    points = PROBE_POINTS
    ts = np.linspace(0.0, PROBE_T, points)

    # algebra
    type1 = _type1_inputs(rng)
    specs = [spec for _, spec, *_ in type1]
    out["algebra.construct_ms"] = (timed(lambda: [wk.build_algebra(s) for s in specs]) / len(specs) * 1e3, "ms")
    inline = (7, wk.inline_brackets(0.9), wk.random_metric(rng, 7))
    fresh = [wk.build_algebra(inline) for _ in range(3)]
    out["algebra.classify_singularity_ms"] = (
        statistics.median(timed(a.classify_singularity, 0.0, 1) for a in fresh) * 1e3, "ms")

    # lorentz and closedform construction on the sweep's algebras
    sweep = [(alg, LorentzForce(alg, m), x0, c) for label, _, alg, m, x0, c in type1
             if label in ("heisenberg1", "heisenberg2", "quaternionic1", "structure_5", "structure_8")]
    n = len(sweep)
    out["lorentz.check_closed_ms"] = (timed(lambda: [check_closed(a, f) for a, f, _, _ in sweep]) / n * 1e3, "ms")
    out["lorentz.exactness_test_ms"] = (
        timed(lambda: [exactness_test(a, f) for a, f, _, _ in sweep]) / n * 1e3, "ms")
    js = [a.j_map(x0[a.dim_v:]) + c * f.block_vv for a, f, x0, c in sweep]
    out["closedform.spectral_decompose_ms"] = (timed(lambda: [spectral_decompose(j) for j in js]) / n * 1e3, "ms")
    ics = [InitialCondition.from_velocity(a, x0, c) for a, _, x0, c in sweep]
    out["closedform.construct_ms"] = (
        timed(lambda: [solve_type1(a, f, ic) for (a, f, _, _), ic in zip(sweep, ics)]) / n * 1e3, "ms")

    # closedform sampling and the oracle on the same grid, per preset
    brackets = sampled = 0
    for label, _, alg, m, x0, c in type1:
        if label not in wk.DENSE_PRESETS:
            continue
        force, ic = LorentzForce(alg, m), InitialCondition.from_velocity(alg, x0, c)
        sol = solve_type1(alg, force, ic)
        solve_s = timed(lambda: solve_type1(alg, force, ic))
        sample_s = timed(lambda: sol.sample(ts))
        oracle_s = timed(lambda: reconstruct_group(alg, m, c, x0, ts, wk.ORACLE))
        out[f"closedform.sample_us_per_point.{label}"] = (sample_s / points * 1e6, "us")
        out[f"oracle.reconstruct_group_ms.{label}"] = (oracle_s * 1e3, "ms")
        out[f"closedform.over_oracle.{label}"] = ((solve_s + sample_s) / oracle_s, "ratio")
        with counter.counting(targets) as counts:
            before = counts["algebra.bracket"]
            sol.sample(ts[:11])
            brackets += counts["algebra.bracket"] - before
        sampled += 11
    out["algebra.bracket_calls_per_point"] = (brackets / sampled, "count")

    # h3_type2 and specfun
    h3 = wk.build_algebra(("heisenberg", 1))
    h3_cases = []
    for branch, label in H3_BRANCHES.items():
        u, c, x0, period = wk.h3_input(rng, branch)
        rho = abs(c) * float(np.linalg.norm(u))
        span = wk.H3_PERIODS * period if period else wk.H3_FREE_T / rho
        h3_cases.append((branch, label, u, c, x0, np.linspace(0.0, span, points)))
    out["h3_type2.construct_us"] = (
        timed(lambda: [solve_type2_general(u, c, x0) for _, _, u, c, x0, _ in h3_cases]) / len(h3_cases) * 1e6,
        "us")
    periodic = [solve_type2_general(u, c, x0) for b, _, u, c, x0, _ in h3_cases if b in ("cn", "dn+", "dn-")]
    out["h3_type2.lambda_periodicity_ms"] = (
        timed(lambda: [lambda_periodicity(t) for t in periodic]) / len(periodic) * 1e3, "ms")
    quads = jacobis = sampled = 0
    for branch, label, u, c, x0, grid in h3_cases:
        traj = solve_type2_general(u, c, x0)
        sample_s = timed(lambda: traj.sample(grid))
        m = wk.type2_matrix(u)
        oracle_s = timed(lambda: reconstruct_group(h3, m, c, x0, grid, wk.ORACLE))
        out[f"h3_type2.sample_us_per_point.{label}"] = (sample_s / len(grid) * 1e6, "us")
        out[f"oracle.reconstruct_group_ms.{label}"] = (oracle_s * 1e3, "ms")
        out[f"h3_type2.over_oracle.{label}"] = (sample_s / oracle_s, "ratio")
        with counter.counting(targets) as counts:
            q0, j0 = counts["h3_type2.quad"], counts["specfun.jacobi"]
            solve_type2_general(u, c, x0).sample(grid)
            quads += counts["h3_type2.quad"] - q0
            jacobis += counts["specfun.jacobi"] - j0
        sampled += len(grid)
    out["h3_type2.quad_calls_per_point"] = (quads / sampled, "count")
    out["specfun.jacobi_calls_per_point"] = (jacobis / sampled, "count")

    ks = rng.uniform(0.05, 0.95, 200)
    us = rng.uniform(-20.0, 20.0, 200)
    xs = rng.uniform(-0.99, 0.99, 200)
    kps = np.sqrt((1.0 - ks) * (1.0 + ks))
    ds = kps + rng.uniform(0.01, 0.99, 200) * (1.0 - kps)
    per = 1e6 / len(ks)
    out["specfun.jacobi_us"] = (timed(lambda: [specfun.jacobi(u, k) for u, k in zip(us, ks)]) * per, "us")
    out["specfun.complete_K_us"] = (timed(lambda: [specfun.complete_K(k) for k in ks]) * per, "us")
    out["specfun.inverse_cn_us"] = (timed(lambda: [specfun.inverse_cn(x, k) for x, k in zip(xs, ks)]) * per, "us")
    out["specfun.inverse_dn_us"] = (timed(lambda: [specfun.inverse_dn(d, k) for d, k in zip(ds, ks)]) * per, "us")

    # h5_type1: one single-mode and one two-mode certificate
    mu1, mu2 = rng.uniform(-1.5, -0.5), rng.uniform(1.5, 2.5)
    h5f = H5Force.from_rates(mu1, mu2)
    energies = (rng.uniform(0.2, 0.8), rng.uniform(3.0, 10.0))
    out["h5_type1.periodic_at_energy_us"] = (
        timed(lambda: [periodic_at_energy(h5f, e) for e in energies]) / 2 * 1e6, "us")
    certs = [periodic_at_energy(h5f, e) for e in energies]
    trajs = [solve_h5(h5f, cert.v0, cert.z0) for cert in certs]
    out["h5_type1.verify_periodic_ms"] = (
        timed(lambda: [verify_periodic(t, cert.period) for t, cert in zip(trajs, certs)]) / 2 * 1e3, "ms")
    out["h5_type1.sample_us_per_point"] = (timed(lambda: [t.sample(ts) for t in trajs]) / (2 * points) * 1e6, "us")

    # oracle on a mixed force (the CLI fallback) and its right-hand-side calls
    a = rng.standard_normal((3, 3))
    m = 0.5 * (a - a.T)
    x0, c = wk._velocity(rng, 3), wk._charge(rng)
    grid = np.linspace(0.0, wk.CLI_T, wk.CLI_SAMPLES)
    out["oracle.reconstruct_group_ms.mixed"] = (timed(lambda: reconstruct_group(h3, m, c, x0, grid, wk.ORACLE)) * 1e3,
                                               "ms")
    with counter.counting(targets) as counts:
        reconstruct_group(h3, m, c, x0, grid, wk.ORACLE)
        out["oracle.rhs_calls"] = (counts["algebra.geodesic_term"], "count")

    # cli: cold import, warm main() on the cli-cold scenarios, scenario parsing
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import nilmag; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(3):
        res = subprocess.run([sys.executable, "-c", code, os.path.join(wk.ROOT, "src")], env=wk.cli_env(),
                             stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
        imports.append(float(res.stdout.strip()))
    out["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    cli_wl = wk.make("cli-cold", seed, tmp)
    argvs = [case.argv for case in cli_wl.rounds[0]]
    warm = []
    for rep in range(2):
        for i, argv in enumerate(argvs):
            t0 = time.perf_counter()
            cli.main([*argv, "--out", os.path.join(tmp, "probe", f"{rep}-{i}")])
            warm.append(time.perf_counter() - t0)
    out["cli.main_warm_ms"] = (statistics.median(warm[len(argvs):]) * 1e3, "ms")
    docs = [wk.load_json(argv[argv.index("--scenario") + 1]) for argv in argvs if "--scenario" in argv]
    out["cli.parse_scenario_us"] = (timed(lambda: [cli.parse_scenario(d) for d in docs]) / len(docs) * 1e6, "us")
    return out
