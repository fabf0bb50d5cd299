"""Experiment runner: ``shadowlab run <config>`` and ``shadowlab describe <kind>``.

Every library operation in ``PUBLIC_OPERATIONS`` runs under at least one
command (a test runs each command and records which operations are entered).
Identical configs produce bitwise-identical output files: seeds are explicit,
aggregation is ordered, floats are written with shortest round-trip
formatting and no timestamps are emitted.

Exit codes: 0 success, 2 when a scan's verdict is diverging (solves fail while
certified lower bounds keep pace with the defect), 1 on any error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys as _sys

import numpy as np

from . import hyperbolicity, pseudo, shadow, systems
from .config import AT_LEAST_ONE, DECREASING, FLOAT, FLOATS, INT, INTS, MATRIX, NONNEGATIVE
from .config import NONNEGATIVE_INT, POSITIVE, POSITIVE_INT, TEXT, ConfigSection, parse_config
from .config import sized
from .errors import ConfigError, ShadowlabError, TooManyPeriodicPointsError
from .shadow import _csv_text, _fmt, _table_text

OUTPUT_DIR_ENV = "SHADOWLAB_OUTPUT_DIR"

# most periodic points the angles command lists, one row each in angles.csv
MAX_LISTED_POINTS = 2**16

COMMANDS = ("witness", "shadow", "scan", "orbit", "lemma6", "angles", "enumerate", "splice")

DESCRIPTIONS = {
    "toral": """\
system kind: toral
  matrix     (required)  integer matrix with |det| = 1, rows separated by ';'
                         example: matrix = 2 1; 1 1
The system is x -> M x (mod 1) on the unit torus, hyperbolic when no
eigenvalue has modulus 1.  Hyperbolic automorphisms are the bounded-ratio
reference family: scans of perturbed orbits keep bounded ratios,
periodic points can be enumerated exactly, and expansion certificates hold
uniformly along them.
""",
    "jordan": """\
system kind: jordan
  block      (default real)  real | rotation | none
  l          (default 2)     block size (number of 2-planes for rotation)
  eigenvalue (default 1)     +1 or -1, diagonal of the real block
  theta      (default 0)     rotation angle of the rotation block
  tail       (default empty) diagonal entries with modulus away from 0 and 1
  c          (default 1)     nonlinearity scale; 0 gives the exactly linear map
  a-ball     (default 0.5)   radius of the exactly linear core ball
  box        (default 4*a-ball) halfwidth of the Euclidean bounding box
The map is v -> A v + phi(v) with A = diag(block, tail) fixed at the origin
and phi vanishing on the core ball.  Witness constructions (staircase,
unit-block, rotation) drive the block coordinates so that no fixed shadowing
ratio can hold as d shrinks; 'K' controls how far they climb (peak K d).
""",
    "perturbed-toral": """\
system kind: perturbed-toral
  matrix     (required)   integer matrix with |det| = 1
  amplitude  (default 0.05) size of the smooth sinusoidal perturbation;
                            must stay below 0.9 times the smallest singular
                            value of the matrix so the map remains invertible
The system is x -> M x + amplitude * g(x) (mod 1) with g the coordinatewise
sine field; it exercises the nonlinear solver paths on the torus.
""",
}


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_table(ctx, name: str, rows: list[list[str]]) -> str:
    """Write ``rows`` to <name>.csv, and under ``format = table`` also as aligned
    columns to <name>.txt; returns the csv path."""
    path = os.path.join(ctx["out_dir"], f"{name}.csv")
    _write_text(path, _csv_text(rows))
    if ctx["format"] == "table":
        _write_text(os.path.join(ctx["out_dir"], f"{name}.txt"), _table_text(rows))
    return path


@contextlib.contextmanager
def _section_errors(section: ConfigSection):
    """Report a ValueError as a config error naming ``section``: bounds that tie
    keys together (|det| = 1, a witness's block or size) are checked by the library."""
    try:
        yield
    except ValueError as exc:
        message = f"section '[{section.name}]': {exc}"
        raise ConfigError(message, section.path, section.line) from exc


# ---------------------------------------------------------------------------
# system construction


def _build_system(section: ConfigSection):
    kind = section.take("kind", *TEXT, required=True)
    with _section_errors(section):
        if kind == "toral":
            matrix = section.take("matrix", *MATRIX, required=True)
            toral = systems.toral_automorphism(matrix)
            return kind, toral, toral.system
        if kind == "jordan":
            block = section.take("block", *TEXT, default="real")
            if block == "none":
                block = None
            model = systems.jordan_model(
                block=block,
                size=section.take("l", *POSITIVE_INT, default=2),
                eigenvalue=section.take("eigenvalue", *INT, default=1),
                theta=section.take("theta", *FLOAT, default=0.0),
                tail=section.take("tail", *FLOATS, default=[]),
                c=section.take("c", *NONNEGATIVE, default=1.0),
                a_ball=section.take("a-ball", *POSITIVE, default=0.5),
                halfwidth=section.take("box", *POSITIVE, default=None),
            )
            return kind, model, model.system
        if kind == "perturbed-toral":
            matrix = section.take("matrix", *MATRIX, required=True)
            base = systems.toral_automorphism(matrix)
            sys_ = systems.perturbed_toral(matrix, section.take("amplitude", *FLOAT, default=0.05))
            return kind, base, sys_
    raise ConfigError(f"unknown system kind {kind!r}", section.path)


def _require(ctx, kind: str):
    """The system object (ToralAutomorphism or JordanModel) when the system has
    the ``kind`` the command needs; a config error otherwise."""
    if ctx["system"][0] != kind:
        raise ConfigError(f"the {ctx['name']} command needs a {kind} system", ctx["command"].path)
    return ctx["system"][1]


# ---------------------------------------------------------------------------
# command handlers (each returns (exit_code, summary_text))


def _cmd_witness(ctx) -> tuple[int, str]:
    section = ctx["command"]
    model = _require(ctx, "jordan")
    wtype = section.take("type", *TEXT, required=True)
    d = section.take("d", *POSITIVE, required=True)
    k_steps = section.take("K", *POSITIVE_INT, required=True)
    with _section_errors(section):
        if wtype == "staircase":
            xi, meta = pseudo.witness_eigenvalue_one(model, d, k_steps)
        elif wtype == "jordan":
            xi, meta = pseudo.witness_jordan(model, d, k_steps)
        elif wtype == "jordan-general":
            xi, meta = pseudo.witness_jordan_general(model, d, k_steps)
        elif wtype == "rotation":
            w0 = section.take("w0", *sized(FLOATS, 2), default=[1.0, 0.0])
            xi, meta = pseudo.witness_rotation(model, d, k_steps, w0)
        else:
            raise ConfigError(f"unknown witness type {wtype!r}", section.path)
    path = os.path.join(ctx["out_dir"], "witness.csv")
    pseudo.save_pseudotrajectory(xi, path)
    peak = float(np.max(np.linalg.norm(xi.points, axis=1)))
    return 0, (
        f"Constructed a {meta.kind} witness with period {meta.period}, measured defect "
        f"{xi.defect:.6g} and peak point norm {peak:.6g} (d = {d:.6g}, K = {k_steps}). "
        f"Wrote {path}."
    )


def _cmd_shadow(ctx) -> tuple[int, str]:
    _, _, sys_ = ctx["system"]
    section = ctx["command"]
    source = section.take("pseudotrajectory", *TEXT, required=True)
    max_iterations = section.take("max-iterations", *POSITIVE_INT, default=100)
    tolerance = section.take("tolerance", *POSITIVE, default=1e-10)
    try:
        xi = pseudo.load_pseudotrajectory(source, sys_)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"key 'command.pseudotrajectory' = {source!r} cannot be loaded: {exc}",
            section.path,
            section.entries["pseudotrajectory"].line,
        ) from exc
    sol = shadow.find_periodic_shadow(
        sys_, xi, max_iterations=max_iterations, tolerance=tolerance
    )
    rows = [["i"] + [f"x{j}" for j in range(sys_.dim)]]
    for i, point in enumerate(sol.orbit):
        rows.append([str(i)] + [_fmt(v) for v in point])
    path = _write_table(ctx, "shadow_orbit", rows)
    status = "converged" if sol.converged else "did not converge"
    return 0, (
        f"Shadow solve on the period-{sol.period} pseudotrajectory (defect {xi.defect:.6g}) "
        f"{status} after {sol.iterations} iterations: sup distance {sol.sup_distance:.6g}, "
        f"ratio {sol.ratio:.6g}, orbit-equation residual {sol.residual:.3g}, minimal period "
        f"{sol.minimal_period}. Wrote {path}."
    )


def _cmd_scan(ctx) -> tuple[int, str]:
    kind, obj, sys_ = ctx["system"]
    section = ctx["command"]
    family_name = section.take("family", *TEXT, required=True)
    d_values = section.take("d-values", *DECREASING, required=True)
    if family_name == "perturbed-orbit":
        if kind not in ("toral", "perturbed-toral"):
            raise ConfigError("the perturbed-orbit family needs a torus system", section.path)
        period = section.take("period", *POSITIVE_INT, required=True)
        base = shadow.toral_orbit_with_period(obj, period)
        if kind == "perturbed-toral":
            # refine the automorphism's orbit into an exact orbit of the
            # perturbed map before using it as the scan base
            seed_xi = pseudo.make_pseudotrajectory(sys_, base)
            refined = shadow.find_periodic_shadow(sys_, seed_xi)
            if not refined.converged:
                raise ConfigError(
                    "could not refine a base orbit of the perturbed system; "
                    "reduce the amplitude",
                    section.path,
                )
            base = refined.orbit
        family = shadow.PerturbedOrbitFamily(sys_, base, seed=ctx["seed"])
    elif family_name == "jordan-witness":
        model = _require(ctx, "jordan")
        k_steps = section.take("K", *POSITIVE_INT, required=True)
        family = shadow.JordanWitnessFamily(model, k_steps)
    else:
        raise ConfigError(f"unknown scan family {family_name!r}", section.path)
    with _section_errors(section):  # the jordan-witness family checks its model per row
        scan = shadow.lipschitz_scan(sys_, family, d_values)
    path = os.path.join(ctx["out_dir"], "scan.csv")
    shadow.write_scan_csv(scan, path)
    if ctx["format"] == "table":
        _write_text(os.path.join(ctx["out_dir"], "scan.txt"), shadow.format_scan_table(scan))
    notes = []
    if sys_.linear_matrix is not None:
        xi = family.generate(d_values[0], 0)
        matrix = sys_.linear_matrix
        try:
            gaps = pseudo.cyclic_gaps(sys_, xi.points)
            correction = shadow.closed_form_linear_shadow(matrix, gaps)
            oracle_orbit = sys_.space.wrap(xi.points - correction)
            solved = shadow.find_periodic_shadow(sys_, xi)
            deviation = np.max(
                np.linalg.norm(sys_.space.diff(oracle_orbit, solved.orbit), axis=1)
            )
            # below the periodicity tolerance the deviation is rounding noise: report the tolerance
            within = max(float(deviation), hyperbolicity.PERIODICITY_TOL)
            l2_constant = shadow.theoretical_linear_lipschitz_bound(matrix, xi.period)
            notes.append(
                f"linear oracle deviation within {within:.3g}, l2 resolvent constant "
                f"{l2_constant:.6g}"
            )
        except ShadowlabError as exc:
            notes.append(f"linear oracle inapplicable ({exc.code})")
    converged = sum(1 for r in scan.rows if r.converged)
    verdict = "diverging" if scan.diverging else "bounded"
    note_text = ("; " + "; ".join(notes)) if notes else ""
    summary = (
        f"Scanned {len(scan.rows)} defect levels with the {family_name} family: "
        f"{converged}/{len(scan.rows)} rows converged, estimated Lipschitz constant "
        f"{scan.estimated_constant:.6g}, verdict {verdict}{note_text}. Wrote {path}."
    )
    return (2 if scan.diverging else 0), summary


def _cmd_orbit(ctx) -> tuple[int, str]:
    _, _, sys_ = ctx["system"]
    section = ctx["command"]
    point = np.array(section.take("point", *sized(FLOATS, sys_.dim), required=True))
    period = section.take("period", *POSITIVE_INT, required=True)
    a_const = section.take("expansivity-a", *POSITIVE, default=0.5)
    window = section.take("window", *POSITIVE_INT, default=2 * period)
    if window < period:
        raise ConfigError(
            f"key 'command.window' must be at least the period {period}, got {window}",
            section.path,
            section.entries["window"].line,
        )
    constant = section.take("L", *AT_LEAST_ONE, default=1.0)
    periodic = shadow.verify_periodicity_by_expansivity(sys_, point, period, a_const, window)
    record = hyperbolicity.analyze_periodic_orbit(sys_, point, period)
    # the step evaluate(sys_, point, period) ends with, measured to the input
    # point: maps return wrapped points, and dist reads the torus metric
    residual = sys_.space.dist(sys_.forward(record.points[-1]), point)
    norm_bound = systems.estimate_norm_bound(sys_, samples=1024)
    beta = hyperbolicity.subspace_angle(record).minimum if record.hyperbolic else float("nan")
    # the growth check certifies the first unstable direction
    if record.hyperbolic and record.unstable_basis.shape[1]:
        cert = hyperbolicity.expansion_certificate(sys_, record, record.unstable_basis[:, 0])
        verdict = "holds" if hyperbolicity.verify_growth_bound(cert, constant) else "fails"
    else:
        verdict = "n/a"
    multipliers = ", ".join(
        f"{z.real:.12g}{z.imag:+.12g}j" if z.imag else f"{z.real:.12g}" for z in record.multipliers
    )
    lines = [
        "orbit 0",
        f"  point      {' '.join(_fmt(c) for c in record.points[0])}",
        f"  period     {period}",
        f"  multipliers {multipliers}",
        f"  index      {record.index}",
        f"  hyperbolic {'yes' if record.hyperbolic else 'no'}",
    ]
    if record.hyperbolic:
        lines.append(f"  beta_min   {_fmt(beta)}")
    lines += [
        f"  growth-check (constant {constant:g}) {verdict}",
        "points",
        *("  " + " ".join(_fmt(v) for v in row) for row in record.points),
        f"periodicity-residual {_fmt(residual)}",
        f"periodicity-check {'passed' if periodic else 'failed'}",
        f"jacobian-norm-bound {_fmt(norm_bound)}",
    ]
    txt_path = os.path.join(ctx["out_dir"], "orbit.txt")
    _write_text(txt_path, "\n".join(lines) + "\n")
    moduli = np.abs(record.multipliers)
    rows = [
        ["period", "index", "hyperbolic", "modulus_max", "modulus_min", "beta_min", "growth_ok"],
        [
            str(period),
            str(record.index),
            "true" if record.hyperbolic else "false",
            _fmt(moduli.max()),
            _fmt(moduli.min()),
            _fmt(beta) if record.hyperbolic else "",
            verdict,
        ],
    ]
    csv_path = os.path.join(ctx["out_dir"], "orbit.csv")
    _write_text(csv_path, _csv_text(rows))
    return 0, (
        f"Analyzed the period-{period} orbit: index {record.index}, "
        f"{'hyperbolic' if record.hyperbolic else 'NOT hyperbolic'}, splitting gap "
        f"{beta:.6g}, finite-window periodicity check "
        f"{'passed' if periodic else 'failed'}. Wrote {txt_path} and {csv_path}."
    )


def _cmd_certificate(ctx) -> tuple[int, str]:
    _, _, sys_ = ctx["system"]
    section = ctx["command"]
    point = np.array(section.take("point", *sized(FLOATS, sys_.dim), required=True))
    period = section.take("period", *POSITIVE_INT, required=True)
    d = section.take("d", *POSITIVE, default=1e-5)
    n_pullback = section.take("n-pullback", *POSITIVE_INT, default=1)
    constant = section.take("L", *AT_LEAST_ONE, default=1.0)
    record = hyperbolicity.analyze_periodic_orbit(sys_, point, period)
    if record.unstable_basis.shape[1] == 0:
        raise ConfigError("the orbit has no unstable direction", section.path)
    v_u = record.unstable_basis[:, 0]
    xi, meta, cert = pseudo.witness_orbit_pullback(sys_, point, period, v_u, d, n_pullback)
    growth_ok = hyperbolicity.verify_growth_bound(cert, constant)
    sol = shadow.find_periodic_shadow(sys_, xi)
    # the shadow's period is a multiple of the orbit's: compare period by period
    laps = sys_.space.diff(sol.orbit.reshape(-1, period, sys_.dim), record.points)
    # below the periodicity tolerance the deviation is rounding noise: report the tolerance
    within = max(float(np.max(np.linalg.norm(laps, axis=-1))), hyperbolicity.PERIODICITY_TOL)
    columns = (cert.rates, cert.coefficients, cert.products, cert.bound_curve(constant))
    rows = [["i", "lambda_i", "a_i", "product", "bound"]]
    rows += [[str(i), *(_fmt(column[i]) for column in columns)] for i in range(period)]
    csv_path = _write_table(ctx, "certificate", rows)
    return 0, (
        f"Expansion certificate at the period-{period} orbit: tau {cert.tau:.6g}, closing "
        f"coefficient {cert.coefficients[period]:.3g}, growth bound with constant "
        f"{constant:.6g} {'holds' if growth_ok else 'FAILS'}; displacement witness has period "
        f"{meta.period} and defect {xi.defect:.6g} (<= 4d = {4 * d:.6g}), and its shadow "
        f"returns to the orbit within {within:.3g}. Wrote {csv_path}."
    )


def _cmd_angles(ctx) -> tuple[int, str]:
    _, _, sys_ = ctx["system"]
    section = ctx["command"]
    toral = _require(ctx, "toral")
    max_period = section.take("max-period", *POSITIVE_INT, required=True)
    horizon = section.take("horizon", *POSITIVE_INT, default=8)
    # the exact counts, largest period first, decide both caps before any
    # point is enumerated or orbit analysed
    total = sum(
        hyperbolicity._periodic_count(toral.matrix, m)[1] for m in range(max_period, 0, -1)
    )
    if total > MAX_LISTED_POINTS:
        raise TooManyPeriodicPointsError(
            f"periods 1..{max_period} have {total} periodic points, more than the "
            f"{MAX_LISTED_POINTS} that are listed"
        )
    point_sets = [
        hyperbolicity.enumerate_periodic_points_toral(toral.matrix, m)
        for m in range(1, max_period + 1)
    ]
    # Df = M at every point, so the origin, fixed by every automorphism, stands
    # for all points of each period: one analysis, one beta per period
    records = [
        hyperbolicity.analyze_periodic_orbit(sys_, np.zeros(sys_.dim), m)
        for m in range(1, max_period + 1)
    ]
    betas = [hyperbolicity.subspace_angle(record).minimum for record in records]
    rows = [["period", "point", "beta_min"]]
    for m, (points, beta) in enumerate(zip(point_sets, betas), start=1):
        rows += [[str(m), " ".join(_fmt(c) for c in point), _fmt(beta)] for point in points]
    constants = hyperbolicity.extract_uniform_constants(sys_, records, horizon)
    path = _write_table(ctx, "angles", rows)
    return 0, (
        f"Splitting angles over {total} periodic points up to period {max_period}: "
        f"beta in [{min(betas):.9g}, {max(betas):.9g}]; fitted uniform constants "
        f"C = {constants.growth_constant:.6g}, rate = {constants.rate:.6g} "
        f"(horizon {horizon}). Wrote {path}."
    )


def _cmd_enumerate(ctx) -> tuple[int, str]:
    _, _, sys_ = ctx["system"]
    section = ctx["command"]
    toral = _require(ctx, "toral")
    period = section.take("period", *POSITIVE_INT, required=True)
    points = hyperbolicity.enumerate_periodic_points_toral(toral.matrix, period)
    images = systems.evaluate(sys_, points, period)
    worst = float(np.max(np.linalg.norm(sys_.space.diff(images, points), axis=1)))
    if worst > 1e-9:
        raise ShadowlabError(f"enumerated point failed the periodicity check ({worst:.3e})")
    rows = [[f"x{j}" for j in range(sys_.dim)]]
    rows += [[_fmt(c) for c in p] for p in points]
    path = _write_table(ctx, "periodic_points", rows)
    return 0, (
        f"Enumerated {len(points)} points with f^{period}(x) = x (worst float residual "
        f"{worst:.3g}). Wrote {path}."
    )


def _cmd_splice(ctx) -> tuple[int, str]:
    _, _, sys_ = ctx["system"]
    section = ctx["command"]
    toral = _require(ctx, "toral")
    forward = section.take("forward", *POSITIVE_INT, required=True)
    backward = section.take("backward", *POSITIVE_INT, required=True)
    shift = section.take("shift", *sized(INTS, sys_.dim), default=[0, 1])
    with _section_errors(section):
        p = pseudo.homoclinic_point(toral, shift)
    seg_fwd = systems.orbit_segment(sys_, p, 0, forward - 1)
    seg_bwd = systems.orbit_segment(sys_, p, -backward, -1)
    xi = pseudo.splice_cycle(sys_, [seg_fwd, seg_bwd])
    path = os.path.join(ctx["out_dir"], "splice.csv")
    pseudo.save_pseudotrajectory(xi, path)
    return 0, (
        f"Spliced orbit segments of lengths {forward} and {backward} through the "
        f"doubly-asymptotic point ({p[0]:.6g}, {p[1]:.6g}): period {xi.period}, junction "
        f"defect {xi.defect:.6g}. Wrote {path}."
    )


_HANDLERS = {
    "witness": _cmd_witness,
    "shadow": _cmd_shadow,
    "scan": _cmd_scan,
    "orbit": _cmd_orbit,
    "lemma6": _cmd_certificate,
    "angles": _cmd_angles,
    "enumerate": _cmd_enumerate,
    "splice": _cmd_splice,
}


def run(config_path: str) -> int:
    """Execute one experiment config; prints a one-paragraph summary."""
    try:
        cfg = parse_config(config_path)
        seed = cfg.top.take("seed", *NONNEGATIVE_INT, default=0)
        system_section = cfg.section("system")
        command_section = cfg.section("command")
        output_section = cfg.section("output")
        name = command_section.take("name", *TEXT, required=True)
        if name not in COMMANDS:
            raise ConfigError(
                f"unknown command {name!r}; expected one of {', '.join(COMMANDS)}",
                cfg.path,
            )
        out_dir = output_section.take("directory", *TEXT, default=".")
        out_dir = os.environ.get(OUTPUT_DIR_ENV, out_dir)
        fmt = output_section.take("format", *TEXT, default="csv")
        if fmt not in ("csv", "table"):
            raise ConfigError(f"output format must be csv or table, got {fmt!r}", cfg.path)
        system_info = _build_system(system_section)
        ctx = {
            "name": name,
            "system": system_info,
            "command": command_section,
            "out_dir": out_dir,
            "format": fmt,
            "seed": seed,
        }
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            if OUTPUT_DIR_ENV in os.environ:
                source, line = OUTPUT_DIR_ENV, None
            else:
                entry = output_section.entries.get("directory")
                source, line = "key 'output.directory'", entry and entry.line
            message = f"{source} = {out_dir!r} is not a usable directory ({exc.strerror})"
            raise ConfigError(message, cfg.path, line) from exc
        code, summary = _HANDLERS[name](ctx)
        cfg.reject_unused()
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1
    except ShadowlabError as exc:
        print(f"error ({exc.code}): {exc}", file=_sys.stderr)
        return 1
    print(summary)
    return code


def describe(kind: str) -> int:
    if kind not in DESCRIPTIONS:
        print(
            f"unknown system kind {kind!r}; expected one of {', '.join(sorted(DESCRIPTIONS))}",
            file=_sys.stderr,
        )
        return 1
    print(DESCRIPTIONS[kind], end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shadowlab",
        description="Periodic-shadowing experiments on discrete dynamical systems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("config", help="path to the experiment config file")
    describe_parser = sub.add_parser("describe", help="print a system kind's parameter schema")
    describe_parser.add_argument("kind", help="toral | jordan | perturbed-toral")
    args = parser.parse_args(argv)
    if args.verb == "run":
        return run(args.config)
    return describe(args.kind)


if __name__ == "__main__":
    raise SystemExit(main())
