import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import shadowlab as sl
from shadowlab import cli
from shadowlab.config import INT, TEXT, parse_config
from shadowlab.errors import ConfigError, SingularJacobianError


def write(path, text):
    path.write_text(text)
    return str(path)


CAT_SYSTEM = """\
[system]
kind = toral
matrix = 2 1; 1 1
"""

JORDAN_SYSTEM = """\
[system]
kind = jordan
block = real
l = 2
eigenvalue = 1
c = 0
"""

ROTATION_SYSTEM = JORDAN_SYSTEM.replace("block = real", "block = rotation").replace(
    "l = 2", "l = 1\ntheta = 0.7"
)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_basic(tmp_path):
    path = write(
        tmp_path / "a.cfg",
        "seed = 7\n\n# comment\n[system]\nkind = toral\nmatrix = 2 1; 1 1\n",
    )
    cfg = parse_config(path)
    assert cfg.top.take("seed", *INT) == 7
    assert cfg.section("system").take("kind", *TEXT) == "toral"


def test_parse_strips_comments_after_whitespace(tmp_path):
    path = write(
        tmp_path / "a.cfg",
        "seed = 7 # seven\n[system]\t# the map\nkind = toral\t# tab\n"
        + "[output]\ndirectory = out#1\nformat = csv #\n",
    )
    cfg = parse_config(path)
    assert cfg.top.take("seed", *INT) == 7
    assert cfg.section("system").take("kind", *TEXT) == "toral"
    assert cfg.section("output").take("directory", *TEXT) == "out#1"
    assert cfg.section("output").take("format", *TEXT) == "csv"


def test_readme_config_example_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    monkeypatch.setenv("SHADOWLAB_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.run(write(tmp_path / "readme.cfg", example)) == 0
    assert "verdict bounded" in capsys.readouterr().out
    assert (tmp_path / "out" / "scan.csv").exists()


def test_readme_library_examples_run(capsys):
    """README's python blocks run in order in one namespace."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    namespace = {}
    for block in readme.split("```python\n")[1:]:
        exec(block.split("```", 1)[0], namespace)
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == pytest.approx(0.376, abs=5e-4)
    assert float(lines[1]) == 25.0


@pytest.mark.parametrize(
    "directory,from_env", [("blocker/out", False), ("blocker", False), ("blocker", True)]
)
def test_unusable_output_directory_is_a_config_error(
    tmp_path, capsys, monkeypatch, directory, from_env
):
    (tmp_path / "blocker").write_text("a regular file\n")
    target = tmp_path / directory
    if from_env:
        monkeypatch.setenv("SHADOWLAB_OUTPUT_DIR", str(target))
    body = CAT_SYSTEM + "[command]\nname = enumerate\nperiod = 2\n"
    named = tmp_path if from_env else target
    cfg = write(tmp_path / "run.cfg", body + f"[output]\ndirectory = {named}\n")
    source = f"{cfg}: SHADOWLAB_OUTPUT_DIR" if from_env else f"{cfg}:8: key 'output.directory'"
    assert cli.run(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {source} = '{target}' is not a usable directory (")


def test_parse_reports_line_numbers(tmp_path):
    path = write(tmp_path / "bad.cfg", "[system]\nkind toral\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert ":2:" in str(err.value)


def test_parse_rejects_unknown_section(tmp_path):
    path = write(tmp_path / "bad.cfg", "[systems]\nkind = toral\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "unknown section" in str(err.value)


def test_parse_rejects_duplicate_key(tmp_path):
    path = write(tmp_path / "bad.cfg", "[system]\nkind = toral\nkind = jordan\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "duplicate key" in str(err.value)


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.cfg",
        CAT_SYSTEM
        + f"[command]\nname = enumerate\nperiod = 2\nbogus = 1\n[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 1
    err = capsys.readouterr().err
    assert "command.bogus" in err


def test_unknown_system_key_rejected(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.cfg",
        "[system]\nkind = toral\nmatrix = 2 1; 1 1\namplitude = 1\n"
        + f"[command]\nname = enumerate\nperiod = 2\n[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 1
    assert "system.amplitude" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# describe


@pytest.mark.parametrize("kind", ["toral", "jordan", "perturbed-toral"])
def test_describe_known(kind, capsys):
    assert cli.describe(kind) == 0
    out = capsys.readouterr().out
    assert f"system kind: {kind}" in out


def test_describe_unknown(capsys):
    assert cli.describe("banana") == 1
    assert "unknown system kind" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# commands end to end


def test_enumerate_command(tmp_path, capsys):
    cfg = write(
        tmp_path / "e.cfg",
        CAT_SYSTEM + f"[command]\nname = enumerate\nperiod = 2\n[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "Enumerated 5 points" in out
    lines = (tmp_path / "periodic_points.csv").read_text().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) == 6


def test_enumerate_self_check_failure_is_not_periodic(tmp_path, capsys, monkeypatch):
    enumerate_toral = sl.hyperbolicity.enumerate_periodic_points_toral
    monkeypatch.setattr(
        sl.hyperbolicity, "enumerate_periodic_points_toral",
        lambda matrix, m: enumerate_toral(matrix, m) + [0.25, 0.0],
    )
    cfg = write(
        tmp_path / "e.cfg",
        CAT_SYSTEM + f"[command]\nname = enumerate\nperiod = 2\n[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (not-periodic): enumerated point failed the periodicity check (")
    assert not (tmp_path / "periodic_points.csv").exists()


def test_enumerate_table_format_also_writes_txt(tmp_path, capsys):
    written = {}
    for fmt in ("csv", "table"):
        cfg = write(
            tmp_path / f"{fmt}.cfg",
            CAT_SYSTEM + "[command]\nname = enumerate\nperiod = 2\n"
            + f"[output]\ndirectory = {tmp_path / fmt}\nformat = {fmt}\n",
        )
        assert cli.run(cfg) == 0
        written[fmt] = {p.name: p.read_text() for p in (tmp_path / fmt).iterdir()}
    capsys.readouterr()
    assert sorted(written["csv"]) == ["periodic_points.csv"]
    assert sorted(written["table"]) == ["periodic_points.csv", "periodic_points.txt"]
    assert written["table"]["periodic_points.csv"] == written["csv"]["periodic_points.csv"]
    csv_rows = [line.split(",") for line in written["csv"]["periodic_points.csv"].splitlines()]
    txt_rows = [line.split() for line in written["table"]["periodic_points.txt"].splitlines()]
    assert txt_rows == csv_rows and len(txt_rows) == 6


@pytest.mark.parametrize(
    "command", ["name = enumerate\nperiod = 20", "name = enumerate\nperiod = 30",
                # the exact count has over 4300 digits, past Python's int-to-string limit
                "name = enumerate\nperiod = 20000", "name = angles\nmax-period = 20"]
)
def test_periodic_point_cap_exits_1(tmp_path, capsys, command):
    cfg = write(
        tmp_path / "e.cfg",
        CAT_SYSTEM + f"[command]\n{command}\n[output]\ndirectory = {tmp_path}\n",
    )
    tracemalloc.start()
    try:
        assert cli.main(["run", cfg]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the lattice is never allocated
    assert "error (too-many-points)" in capsys.readouterr().err
    assert not (tmp_path / "periodic_points.csv").exists()


def test_angles_orbit_cap_fails_before_analysis(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a period was enumerated or an orbit analysed")

    monkeypatch.setattr(sl.hyperbolicity, "analyze_periodic_orbit", never)
    monkeypatch.setattr(sl.hyperbolicity, "enumerate_periodic_points_toral", never)
    cfg = write(
        tmp_path / "a.cfg",
        CAT_SYSTEM
        + f"[command]\nname = angles\nmax-period = 12\n[output]\ndirectory = {tmp_path}\n",
    )
    start = time.perf_counter()
    assert cli.main(["run", cfg]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "error (too-many-points)" in err
    message = "periods 1..12 have 167736 periodic points, more than the 65536 that are listed"
    assert message in err
    assert not (tmp_path / "angles.csv").exists()


def test_witness_and_shadow_commands(tmp_path, capsys):
    out1 = tmp_path / "w"
    cfg1 = write(
        tmp_path / "w.cfg",
        JORDAN_SYSTEM
        + f"[command]\nname = witness\ntype = jordan\nd = 1e-4\nK = 5\n[output]\ndirectory = {out1}\n",
    )
    assert cli.run(cfg1) == 0
    witness_path = out1 / "witness.csv"
    assert witness_path.exists()
    # the shadow command on the witness reports the singular linearization
    cfg2 = write(
        tmp_path / "s.cfg",
        JORDAN_SYSTEM
        + f"[command]\nname = shadow\npseudotrajectory = {witness_path}\n"
        + f"[output]\ndirectory = {out1}\n",
    )
    assert cli.run(cfg2) == 1
    assert "singular-jacobian" in capsys.readouterr().err


def test_shadow_command_on_splice(tmp_path, capsys):
    out = tmp_path / "sp"
    cfg1 = write(
        tmp_path / "sp.cfg",
        CAT_SYSTEM
        + f"[command]\nname = splice\nforward = 8\nbackward = 8\n[output]\ndirectory = {out}\n",
    )
    assert cli.run(cfg1) == 0
    cfg2 = write(
        tmp_path / "sh.cfg",
        CAT_SYSTEM
        + f"[command]\nname = shadow\npseudotrajectory = {out / 'splice.csv'}\n"
        + f"[output]\ndirectory = {out}\n",
    )
    assert cli.run(cfg2) == 0
    summary = capsys.readouterr().out
    assert "converged" in summary
    orbit_lines = (out / "shadow_orbit.csv").read_text().splitlines()
    assert orbit_lines[0] == "i,x0,x1"
    assert len(orbit_lines) == 17


def test_scan_command_bounded_exit0(tmp_path, capsys):
    cfg = write(
        tmp_path / "scan.cfg",
        "seed = 3\n"
        + CAT_SYSTEM
        + "[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 5\n"
        + "d-values = 1e-3 1e-4 1e-5\n"
        + f"[output]\ndirectory = {tmp_path}\nformat = table\n",
    )
    assert cli.run(cfg) == 0
    out = capsys.readouterr().out
    assert "verdict bounded" in out
    assert "linear oracle deviation within 1e-08, " in out
    assert (tmp_path / "scan.csv").exists()
    assert (tmp_path / "scan.txt").exists()


def test_scan_oracle_note_prints_a_deviation_over_the_tolerance(tmp_path, capsys, monkeypatch):
    oracle = sl.shadow.closed_form_linear_shadow
    monkeypatch.setattr(
        sl.shadow, "closed_form_linear_shadow", lambda a, gaps: oracle(a, gaps) + [1e-6, 0.0]
    )
    cfg = write(
        tmp_path / "scan.cfg",
        CAT_SYSTEM
        + "[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 5\n"
        + "d-values = 1e-3 1e-4 1e-5\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    assert "linear oracle deviation within 1e-06, " in capsys.readouterr().out


def test_scan_command_perturbed_toral(tmp_path, capsys):
    cfg = write(
        tmp_path / "scan.cfg",
        "seed = 5\n[system]\nkind = perturbed-toral\nmatrix = 2 1; 1 1\namplitude = 0.03\n"
        + "[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 5\n"
        + "d-values = 1e-3 1e-4 1e-5\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    out = capsys.readouterr().out
    assert "3/3 rows converged" in out and "verdict bounded" in out


def test_scan_command_diverging_exit2(tmp_path, capsys):
    cfg = write(
        tmp_path / "scan.cfg",
        JORDAN_SYSTEM
        + "[command]\nname = scan\nfamily = jordan-witness\nK = 25\n"
        + "d-values = 1e-3 1e-4 1e-5\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 2
    assert "verdict diverging" in capsys.readouterr().out


# seed 7 at period 5, the smallest seed whose four converged ratios rise
# strictly under the seeded noise (0.336 to 0.629), yet every one is below the
# cat-map l2 resolvent constant 1.618; the verdict rests on certified lower
# bounds only
SCAN_7_CSV = """\
d,epsilon_star,ratio,converged,lower_bound
0.0021156310376901346,0.0007103156051768572,0.3357464475244163,true,
0.00028317397031110675,9.523795350708238e-05,0.3363231210921328,true,
2.007348568851454e-05,9.564308810034617e-06,0.4764647734053999,true,
1.5094314407986369e-06,9.493712604227972e-07,0.628959510688665,true,
"""


def test_scan_command_rising_ratios_stay_bounded(tmp_path, capsys):
    cfg = write(
        tmp_path / "scan.cfg",
        "seed = 7\n"
        + CAT_SYSTEM
        + "[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 5\n"
        + "d-values = 1e-3 1e-4 1e-5 1e-6\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    assert "4/4 rows converged" in capsys.readouterr().out
    assert (tmp_path / "scan.csv").read_text() == SCAN_7_CSV


def test_orbit_command(tmp_path, capsys):
    cfg = write(
        tmp_path / "orbit.cfg",
        CAT_SYSTEM
        + "[command]\nname = orbit\npoint = 0.2 0.4\nperiod = 2\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    out = capsys.readouterr().out
    assert "hyperbolic" in out and "passed" in out
    report = (tmp_path / "orbit.txt").read_text()
    assert "multipliers" in report and "beta_min" in report
    assert "growth-check" in report and "holds" in report
    csv_header = (tmp_path / "orbit.csv").read_text().splitlines()[0]
    assert csv_header.endswith("beta_min,growth_ok")
    lines = report.splitlines()
    start = lines.index("points") + 1
    expected = sl.orbit_segment(sl.cat_map().system, [0.2, 0.4], 0, 1).tolist()
    assert lines[start : start + 2] == ["  " + " ".join(map(repr, row)) for row in expected]


def test_orbit_command_reads_a_coordinate_just_below_zero_as_zero(tmp_path, capsys):
    cfg = write(
        tmp_path / "orbit.cfg",
        CAT_SYSTEM
        + "[command]\nname = orbit\npoint = -1e-20 0\nperiod = 1\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    capsys.readouterr()
    lines = (tmp_path / "orbit.txt").read_text().splitlines()
    assert "  point      0.0 0.0" in lines
    assert lines[lines.index("points") + 1] == "  0.0 0.0"
    assert "periodicity-residual 1e-20" in lines


def test_orbit_command_lost_multipliers_exit_1(tmp_path, capsys):
    for period in (40, 800):  # at 800 the monodromy product overflows
        cfg = write(
            tmp_path / f"orbit{period}.cfg",
            CAT_SYSTEM
            + f"[command]\nname = orbit\npoint = 0 0\nperiod = {period}\n"
            + f"[output]\ndirectory = {tmp_path}\n",
        )
        assert cli.main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (lost-precision)") and "Traceback" not in err
        assert not (tmp_path / "orbit.txt").exists()


def test_orbit_command_step_limit_exit_1(tmp_path, capsys):
    # the default window 2 * period asks for 5 * period iterates, over the limit
    cfg = write(
        tmp_path / "orbit.cfg",
        CAT_SYSTEM
        + "[command]\nname = orbit\npoint = 0 0\nperiod = 6000000\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    start = time.perf_counter()
    assert cli.main(["run", cfg]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error (step-limit)") and "Traceback" not in err
    assert not (tmp_path / "orbit.txt").exists()


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_orbit_command_analyses_once(tmp_path, capsys, monkeypatch):
    angles = _count_calls(monkeypatch, sl.hyperbolicity, "subspace_angle")
    certificates = _count_calls(monkeypatch, sl.hyperbolicity, "expansion_certificate")
    cfg = write(
        tmp_path / "orbit.cfg",
        CAT_SYSTEM
        + "[command]\nname = orbit\npoint = 0.2 0.4\nperiod = 2\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    assert "splitting gap 1.41421" in capsys.readouterr().out
    assert len(angles) == 1 and len(certificates) == 1


THREE_BY_THREE = "-1 -1 -1; 2 0 -1; 2 1 0"


@pytest.mark.parametrize(
    "system,point,period",
    [
        (CAT_SYSTEM, "0.2 0.4", 2),
        (CAT_SYSTEM, "1.0 0.5", 3),  # wraps to (0, 0.5)
        # a coordinate of -1e-20, which a single np.mod reads as 1.0 and the chart as 0.0
        (CAT_SYSTEM.replace("2 1; 1 1", "4 1; 3 1"), "0.3333333333333333 -1e-20", 1),
        (CAT_SYSTEM.replace("2 1; 1 1", THREE_BY_THREE), None, 3),
        (
            "[system]\nkind = jordan\nblock = rotation\nl = 1\ntheta = 2.0943951023931953\nc = 0\n",
            "0.3 0.1",
            3,
        ),
    ],
    ids=["cat", "cat-unwrapped", "wrapped-to-one", "toral-3x3", "rotation"],
)
def test_orbit_residual_is_the_walk_of_period_steps(tmp_path, capsys, system, point, period):
    cfg = parse_config(write(tmp_path / "s.cfg", system))
    sys_ = cli._build_system(cfg.section("system"))[2]
    if point is None:
        matrix = [[int(v) for v in r.split()] for r in THREE_BY_THREE.split(";")]
        point = " ".join(map(repr, sl.enumerate_periodic_points_toral(matrix, period)[7].tolist()))
    cfg = write(
        tmp_path / "orbit.cfg",
        system
        + f"[command]\nname = orbit\npoint = {point}\nperiod = {period}\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    capsys.readouterr()
    p = np.array([float(v) for v in point.split()])
    residual = sys_.space.dist(sl.evaluate(sys_, p, period), p)
    report = (tmp_path / "orbit.txt").read_text().splitlines()
    assert f"periodicity-residual {residual!r}" in report


@pytest.mark.parametrize(
    "matrix, max_period, fmt",
    [
        ("2 1; 1 1", 4, "csv"),
        # unequal split dims (1, 2): the frames are carried unstacked
        ("-1 -1 -1; 2 0 -1; 2 1 0", 3, "csv"),
        ("2 1; 1 1", 4, "table"),
    ],
)
def test_angles_command_analyses_each_period_once(
    tmp_path, capsys, monkeypatch, matrix, max_period, fmt
):
    toral = sl.toral_automorphism([[int(x) for x in row.split()] for row in matrix.split(";")])
    rows = ["period,point,beta_min"]
    for m in range(1, max_period + 1):
        for point in sl.enumerate_periodic_points_toral(toral.matrix, m):
            beta = sl.subspace_angle(sl.analyze_periodic_orbit(toral.system, point, m)).minimum
            rows.append(f"{m},{' '.join(repr(float(c)) for c in point)},{beta!r}")
    analyses = _count_calls(monkeypatch, sl.hyperbolicity, "analyze_periodic_orbit")
    angles = _count_calls(monkeypatch, sl.hyperbolicity, "subspace_angle")
    fits = _count_calls(monkeypatch, sl.hyperbolicity, "extract_uniform_constants")
    cfg = write(
        tmp_path / "angles.cfg",
        f"[system]\nkind = toral\nmatrix = {matrix}\n"
        + f"[command]\nname = angles\nmax-period = {max_period}\n"
        + f"[output]\ndirectory = {tmp_path}\nformat = {fmt}\n",
    )
    assert cli.run(cfg) == 0
    assert f"over {len(rows) - 1} periodic points" in capsys.readouterr().out
    assert (len(analyses), len(angles), len(fits)) == (max_period, max_period, 1)
    assert (tmp_path / "angles.csv").read_bytes() == ("\n".join(rows) + "\n").encode()
    if fmt == "csv":
        assert not (tmp_path / "angles.txt").exists()
        return
    cells = [row.split(",") for row in rows]
    lines = (tmp_path / "angles.txt").read_text().splitlines()
    assert len(lines) == len(cells)
    # each column starts where its header cell does, two spaces past the widest cell before it
    starts = [lines[0].index(name) for name in cells[0]] + [None]
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    assert starts[0] == 0 and all(starts[j + 1] == starts[j] + widths[j] + 2 for j in range(2))
    for line, row in zip(lines, cells):
        assert line == line.rstrip()
        for j, cell in enumerate(row):
            assert line[starts[j] : starts[j + 1]].rstrip() == cell


def test_scan_oracle_note_when_a_solve_raises(tmp_path, capsys, monkeypatch):
    # the closed form runs first: at the unit Jordan block its error wins
    cfg = write(
        tmp_path / "jordan.cfg",
        JORDAN_SYSTEM
        + "[command]\nname = scan\nfamily = jordan-witness\nK = 25\n"
        + "d-values = 1e-3 1e-4 1e-5\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 2
    assert "linear oracle inapplicable (nonhyperbolic-monodromy)" in capsys.readouterr().out

    def singular(*args, **kwargs):
        raise SingularJacobianError("forced")

    monkeypatch.setattr(sl.shadow, "find_periodic_shadow", singular)
    cfg = write(
        tmp_path / "cat.cfg",
        CAT_SYSTEM
        + "[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 5\n"
        + "d-values = 1e-3 1e-4 1e-5\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    assert "linear oracle inapplicable (singular-jacobian)" in capsys.readouterr().out


def test_certificate_command(tmp_path, capsys):
    cfg = write(
        tmp_path / "cert.cfg",
        CAT_SYSTEM
        + "[command]\nname = lemma6\npoint = 0 0\nperiod = 1\nd = 1e-5\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    out = capsys.readouterr().out
    # the deviation is rounding noise below the periodicity tolerance, reported as that
    assert "holds" in out and "returns to the orbit within 1e-08." in out
    cert_lines = (tmp_path / "certificate.csv").read_text().splitlines()
    assert cert_lines[0] == "i,lambda_i,a_i,product,bound"


def test_certificate_command_step_limit_exit_1(tmp_path, capsys):
    cfg = write(
        tmp_path / "cert.cfg",
        CAT_SYSTEM
        + "[command]\nname = lemma6\npoint = 0 0\nperiod = 1\nn-pullback = 1000000000\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert cli.main(["run", cfg]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert peak < 1 << 20  # the (10^9, 2) displacement is never allocated
    err = capsys.readouterr().err
    assert err.startswith("error (step-limit)") and "Traceback" not in err
    assert not (tmp_path / "certificate.csv").exists()


def test_certificate_command_pullback_failed_exit_1(tmp_path, capsys):
    cfg = write(
        tmp_path / "cert.cfg",
        "[system]\nkind = jordan\nblock = none\ntail = 1.00001 0.5\nc = 0\n"
        + "[command]\nname = lemma6\npoint = 0 0\nperiod = 10\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (pullback-failed)") and "Traceback" not in err
    assert not (tmp_path / "certificate.csv").exists()


def test_angles_command(tmp_path, capsys):
    cfg = write(
        tmp_path / "ang.cfg",
        CAT_SYSTEM
        + "[command]\nname = angles\nmax-period = 3\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    out = capsys.readouterr().out
    assert "beta in [" in out and "fitted uniform constants" in out
    lines = (tmp_path / "angles.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 + 5 + 16


def test_angles_fit_holds_at_long_horizons(tmp_path, capsys):
    for matrix, horizon, summary in (
        ("3 2; 1 1", 40, "C = 1, rate = 0.267949 (horizon 40)"),
        ("2 1; 1 1", 800, "C = 1, rate = 0.381966 (horizon 800)"),
    ):
        cfg = write(
            tmp_path / "ang.cfg",
            CAT_SYSTEM.replace("2 1; 1 1", matrix)
            + f"[command]\nname = angles\nmax-period = 4\nhorizon = {horizon}\n"
            + f"[output]\ndirectory = {tmp_path}\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", cfg]) == 0
        assert summary in capsys.readouterr().out


def test_angles_horizon_is_step_limited(tmp_path, capsys):
    cfg = write(
        tmp_path / "a.cfg",
        CAT_SYSTEM
        + "[command]\nname = angles\nmax-period = 2\nhorizon = 1000000000\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    start = time.perf_counter()
    assert cli.main(["run", cfg]) == 1
    assert time.perf_counter() - start < 5.0
    assert "error (step-limit)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["name = angles\nmax-period = 4", "name = lemma6\npoint = 0.5 0\nperiod = 3"]
)
def test_memoised_splitting_writes_the_same_bytes(tmp_path, capsys, command):
    # the second run starts with the splitting memo holding the first run's last
    # stack, and writes the same bytes whether or not it reuses that stack
    outputs = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        cfg = write(tmp_path / f"{run}.cfg", CAT_SYSTEM + f"[command]\n{command}\n"
                    + f"[output]\ndirectory = {out}\n")
        assert cli.run(cfg) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"),
                        {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1] and outputs[0][1]


def test_output_dir_env_override(tmp_path, capsys, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(override))
    cfg = write(
        tmp_path / "e.cfg",
        CAT_SYSTEM + f"[command]\nname = enumerate\nperiod = 1\n[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    capsys.readouterr()
    assert (override / "periodic_points.csv").exists()
    assert not (tmp_path / "periodic_points.csv").exists()


def test_determinism_bitwise(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    body = (
        "seed = 9\n"
        + CAT_SYSTEM
        + "[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 8\n"
        + "d-values = 1e-3 1e-4 1e-5 1e-6\n"
    )
    cfg_a = write(tmp_path / "a.cfg", body + f"[output]\ndirectory = {out_a}\n")
    cfg_b = write(tmp_path / "b.cfg", body + f"[output]\ndirectory = {out_b}\n")
    assert cli.run(cfg_a) == 0
    assert cli.run(cfg_b) == 0
    capsys.readouterr()
    assert (out_a / "scan.csv").read_bytes() == (out_b / "scan.csv").read_bytes()


# one small run per command branch: (system, command body, expected exit code);
# the shadow run reads the splice run's output, so the order matters
COVERAGE_RUNS = [
    (CAT_SYSTEM, "name = splice\nforward = 4\nbackward = 4", 0),
    (CAT_SYSTEM, "name = shadow\npseudotrajectory = {out}/splice.csv", 0),
    (CAT_SYSTEM, "name = scan\nfamily = perturbed-orbit\nperiod = 3\nd-values = 1e-3 1e-4 1e-5", 0),
    (JORDAN_SYSTEM, "name = scan\nfamily = jordan-witness\nK = 5\nd-values = 1e-3 1e-4 1e-5", 2),
    (CAT_SYSTEM, "name = orbit\npoint = 0.2 0.4\nperiod = 2", 0),
    (CAT_SYSTEM, "name = lemma6\npoint = 0 0\nperiod = 1", 0),
    (CAT_SYSTEM, "name = angles\nmax-period = 2", 0),
    (CAT_SYSTEM, "name = enumerate\nperiod = 2", 0),
    (JORDAN_SYSTEM, "name = witness\ntype = staircase\nd = 1e-4\nK = 3", 0),
    (JORDAN_SYSTEM, "name = witness\ntype = jordan\nd = 1e-4\nK = 3", 0),
    (
        JORDAN_SYSTEM.replace("l = 2", "l = 3"),
        "name = witness\ntype = jordan-general\nd = 1e-4\nK = 3",
        0,
    ),
    (
        "[system]\nkind = jordan\nblock = rotation\nl = 1\ntheta = 0.7\nc = 0\n",
        "name = witness\ntype = rotation\nd = 1e-4\nK = 3",
        0,
    ),
]


def test_operation_coverage(tmp_path, capsys):
    """Every public operation is entered while some command runs."""
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    commands = set()
    for i, (system, command, expected) in enumerate(COVERAGE_RUNS):
        body = system + "[command]\n" + command.format(out=tmp_path) + "\n"
        cfg = write(tmp_path / f"run{i}.cfg", body + f"[output]\ndirectory = {tmp_path}\n")
        sys.setprofile(record)
        try:
            code = cli.run(cfg)
        finally:
            sys.setprofile(None)
        assert code == expected, (command, capsys.readouterr().err)
        commands.add(command.split("\n")[0].removeprefix("name = "))
    capsys.readouterr()
    assert commands == set(cli.COMMANDS)
    missing = [op.__name__ for op in sl.PUBLIC_OPERATIONS if op.__code__ not in entered]
    assert not missing, f"operations no command runs: {missing}"


@pytest.mark.parametrize(
    "system,command,bad",
    [
        (CAT_SYSTEM, "name = orbit\npoint = 0 0", "period = 0"),
        (CAT_SYSTEM, "name = enumerate", "period = 0"),
        (CAT_SYSTEM, "name = lemma6\npoint = 0 0", "period = 0"),
        (CAT_SYSTEM, "name = lemma6\npoint = 0 0\nperiod = 1", "n-pullback = 0"),
        (
            CAT_SYSTEM,
            "name = scan\nfamily = perturbed-orbit\nd-values = 1e-3 1e-4 1e-5",
            "period = 0",
        ),
        (CAT_SYSTEM, "name = angles", "max-period = 0"),
        (CAT_SYSTEM, "name = angles\nmax-period = 2", "horizon = 0"),
        (CAT_SYSTEM, "name = angles\nmax-period = 2", "horizon = -3"),
        (CAT_SYSTEM, "name = splice\nbackward = 3", "forward = 0"),
        (JORDAN_SYSTEM, "name = witness\ntype = jordan\nd = 1e-4", "K = 0"),
        (JORDAN_SYSTEM, "name = scan\nfamily = jordan-witness\nd-values = 1e-3 1e-4 1e-5", "K = 0"),
        (CAT_SYSTEM, "name = orbit\npoint = 0 0\nperiod = 4", "window = 0"),
    ],
)
def test_nonpositive_count_is_a_config_error(tmp_path, capsys, system, command, bad):
    body = system + f"[command]\n{command}\n{bad}\n"
    err = _run_bad_config(tmp_path, capsys, body)
    key, _, value = bad.partition(" = ")
    line = body.splitlines().index(bad) + 1
    assert f":{line}:" in err
    assert f"key 'command.{key}' must be a positive integer, got '{value}'" in err


def _run_bad_config(tmp_path, capsys, body: str) -> str:
    cfg = write(tmp_path / "bad.cfg", body + f"[output]\ndirectory = {tmp_path}\n")
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "system,command,bad,message",
    [
        (
            JORDAN_SYSTEM.replace("l = 2", "l = 0"),
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "l = 0",
            "key 'system.l' must be a positive integer, got '0'",
        ),
        (
            CAT_SYSTEM,
            "name = orbit\npoint = 0 0\nperiod = 4\nwindow = 2",
            "window = 2",
            "key 'command.window' must be at least the period 4, got 2",
        ),
        (
            CAT_SYSTEM,
            "name = shadow\npseudotrajectory = /nonexistent",
            "pseudotrajectory = /nonexistent",
            "key 'command.pseudotrajectory' = '/nonexistent' cannot be loaded",
        ),
        (
            CAT_SYSTEM,
            "name = shadow\npseudotrajectory = MALFORMED",
            "pseudotrajectory = MALFORMED",
            "not a pseudotrajectory file",
        ),
        (
            CAT_SYSTEM,
            "name = shadow\npseudotrajectory = NONFINITE",
            "pseudotrajectory = NONFINITE",
            "the points hold a non-finite value",
        ),
        (
            CAT_SYSTEM,
            "name = shadow\npseudotrajectory = EXTRA",
            "pseudotrajectory = EXTRA",
            "expected 2 points, found 4",
        ),
        (
            CAT_SYSTEM,
            "name = shadow\npseudotrajectory = MALFORMED\nmax-iterations = -3",
            "max-iterations = -3",
            "key 'command.max-iterations' must be a positive integer, got '-3'",
        ),
        (
            CAT_SYSTEM,
            "name = shadow\npseudotrajectory = MALFORMED\ntolerance = -1",
            "tolerance = -1",
            "key 'command.tolerance' must be a positive number, got '-1'",
        ),
        (
            CAT_SYSTEM,
            "name = orbit\npoint = 0 0\nperiod = 1\nexpansivity-a = 0",
            "expansivity-a = 0",
            "key 'command.expansivity-a' must be a positive number, got '0'",
        ),
        (
            CAT_SYSTEM,
            "name = orbit\npoint = 0 0\nperiod = 1\nL = 0.5",
            "L = 0.5",
            "key 'command.L' must be a number >= 1, got '0.5'",
        ),
        (
            CAT_SYSTEM,
            "name = lemma6\npoint = 0 0\nperiod = 1\nL = 0.5",
            "L = 0.5",
            "key 'command.L' must be a number >= 1, got '0.5'",
        ),
        (
            CAT_SYSTEM,
            "name = lemma6\npoint = 0 0\nperiod = 1\nd = -1",
            "d = -1",
            "key 'command.d' must be a positive number, got '-1'",
        ),
        (
            JORDAN_SYSTEM,
            "name = witness\ntype = jordan\nd = -1\nK = 3",
            "d = -1",
            "key 'command.d' must be a positive number, got '-1'",
        ),
        (
            JORDAN_SYSTEM.replace("c = 0", "c = -1"),
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "c = -1",
            "key 'system.c' must be a number >= 0, got '-1'",
        ),
        (
            JORDAN_SYSTEM + "a-ball = 0\n",
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "a-ball = 0",
            "key 'system.a-ball' must be a positive number, got '0'",
        ),
        (
            JORDAN_SYSTEM + "box = nan\n",
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "box = nan",
            "key 'system.box' must be a positive number, got 'nan'",
        ),
        (
            CAT_SYSTEM,
            "name = scan\nfamily = perturbed-orbit\nperiod = 3\nd-values = 1e-3 1e-5 1e-4",
            "d-values = 1e-3 1e-5 1e-4",
            "key 'command.d-values' must be at least 3 positive, strictly decreasing numbers, "
            "got '1e-3 1e-5 1e-4'",
        ),
        (
            CAT_SYSTEM,
            "name = scan\nfamily = perturbed-orbit\nperiod = 3\nd-values = 1e-3 1e-4 0",
            "d-values = 1e-3 1e-4 0",
            "key 'command.d-values' must be at least 3 positive, strictly decreasing",
        ),
        # nan and +-inf are rejected by every float-valued key
        (
            ROTATION_SYSTEM.replace("theta = 0.7", "theta = nan"),
            "name = witness\ntype = rotation\nd = 1e-4\nK = 3",
            "theta = nan",
            "key 'system.theta' must be a number, got 'nan'",
        ),
        (
            CAT_SYSTEM,
            "name = orbit\npoint = nan 0\nperiod = 1",
            "point = nan 0",
            "key 'command.point' must be 2 numbers, got 'nan 0'",
        ),
        (
            CAT_SYSTEM,
            "name = scan\nfamily = perturbed-orbit\nperiod = 3\nd-values = inf 1e-3 1e-4",
            "d-values = inf 1e-3 1e-4",
            "key 'command.d-values' must be at least 3 positive, strictly decreasing numbers, "
            "got 'inf 1e-3 1e-4'",
        ),
        (
            "seed = -3\n" + CAT_SYSTEM,
            "name = scan\nfamily = perturbed-orbit\nperiod = 5\nd-values = 1e-3 1e-4 1e-5",
            "seed = -3",
            "key 'seed' must be a non-negative integer, got '-3'",
        ),
        # bounds that tie several keys together name the [system] section
        (
            CAT_SYSTEM.replace("2 1; 1 1", "2 0; 0 1"),
            "name = orbit\npoint = 0 0\nperiod = 1",
            "[system]",
            "section '[system]': |det| must be 1",
        ),
        (
            CAT_SYSTEM.replace("toral", "perturbed-toral") + "amplitude = 5\n",
            "name = orbit\npoint = 0 0\nperiod = 1",
            "[system]",
            "section '[system]': amplitude must be in [0, ",
        ),
        (
            JORDAN_SYSTEM + "tail = 1.0\n",
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "[system]",
            "section '[system]': tail entries must have modulus away from 0 and 1",
        ),
        (
            JORDAN_SYSTEM.replace("eigenvalue = 1", "eigenvalue = 2"),
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "[system]",
            "section '[system]': eigenvalue must be +1 or -1",
        ),
        (
            JORDAN_SYSTEM.replace("c = 0", "c = 100"),
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "[system]",
            "section '[system]': nonlinearity scale",
        ),
        # a point or vector of the wrong length names its key
        (
            CAT_SYSTEM,
            "name = orbit\npoint = 0 0 0\nperiod = 1",
            "point = 0 0 0",
            "key 'command.point' must be 2 numbers, got '0 0 0'",
        ),
        (
            CAT_SYSTEM,
            "name = lemma6\npoint = 0\nperiod = 1",
            "point = 0",
            "key 'command.point' must be 2 numbers, got '0'",
        ),
        (
            CAT_SYSTEM,
            "name = splice\nforward = 3\nbackward = 3\nshift = 1",
            "shift = 1",
            "key 'command.shift' must be 2 integers, got '1'",
        ),
        (
            ROTATION_SYSTEM,
            "name = witness\ntype = rotation\nd = 1e-4\nK = 3\nw0 = 1 0 0",
            "w0 = 1 0 0",
            "key 'command.w0' must be 2 numbers, got '1 0 0'",
        ),
        # a command that needs another system names the [command] section
        (
            CAT_SYSTEM.replace("2 1; 1 1", "1 1; 0 1"),
            "name = splice\nforward = 3\nbackward = 3",
            "[command]",
            "section '[command]': homoclinic construction needs a 2x2 hyperbolic automorphism",
        ),
        (
            JORDAN_SYSTEM.replace("eigenvalue = 1", "eigenvalue = -1"),
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "[command]",
            "section '[command]': the size-2 unit-block witness is implemented for eigenvalue +1",
        ),
        (
            JORDAN_SYSTEM.replace("l = 2", "l = 3"),
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "[command]",
            "section '[command]': this witness needs a real unit Jordan block of size 2",
        ),
        (
            ROTATION_SYSTEM,
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "[command]",
            "section '[command]': this witness needs a real unit Jordan block of size 2",
        ),
        (
            JORDAN_SYSTEM.replace("block = real", "block = none") + "tail = 2\n",
            "name = witness\ntype = jordan\nd = 1e-4\nK = 3",
            "[command]",
            "section '[command]': this witness needs a real unit Jordan block of size 2",
        ),
        (
            ROTATION_SYSTEM,
            "name = witness\ntype = staircase\nd = 1e-4\nK = 3",
            "[command]",
            "section '[command]': the staircase witness needs a real Jordan block model",
        ),
        (
            ROTATION_SYSTEM,
            "name = scan\nfamily = jordan-witness\nK = 3\nd-values = 1e-3 1e-4 1e-5",
            "[command]",
            "section '[command]': this witness needs a real unit Jordan block of size 2",
        ),
        # a witness whose period or retirement counts pass the step limit
        (
            JORDAN_SYSTEM,
            "name = witness\ntype = jordan\nd = 1e-12\nK = 100000",
            "[command]",
            "section '[command]': the unit-block witness at l = 2, K = 100000 needs a "
            "retirement count over 10000000 steps",
        ),
        (
            JORDAN_SYSTEM.replace("l = 2", "l = 10"),
            "name = witness\ntype = jordan-general\nd = 1e-12\nK = 2",
            "[command]",
            "section '[command]': the unit-block witness at l = 10, K = 2 needs a "
            "retirement count over 10000000 steps",
        ),
    ],
)
def test_unusable_value_is_a_config_error(tmp_path, capsys, system, command, bad, message):
    files = {
        "MALFORMED": "i,x0,x1\n0,0.1,0.2\n",
        "NONFINITE": "Q,defect,kind,params\n1,0.0,custom,\nnan,0.2\n",
        "EXTRA": "Q,defect,kind,params\n2,0.0,custom,\n0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n",
    }
    for name, text in files.items():
        path = tmp_path / f"{name.lower()}.csv"
        path.write_text(text)
        command, bad = command.replace(name, str(path)), bad.replace(name, str(path))
    body = system + f"[command]\n{command}\n"
    err = _run_bad_config(tmp_path, capsys, body)
    line = body.splitlines().index(bad) + 1
    assert f":{line}:" in err and message in err


def test_config_error_without_a_line_separates_path_and_message(tmp_path, capsys):
    cfg = write(tmp_path / "l.cfg", CAT_SYSTEM + "[command]\nperiod = 1\n")
    assert cli.run(cfg) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: missing required key 'command.name'\n"


SCAN_D_VALUES = "d-values = 1e-3 1e-4 1e-5"


@pytest.mark.parametrize(
    "body,bad,message",
    [
        (
            "[system]\nkind = banana\n[command]\nname = enumerate\nperiod = 2\n",
            "kind = banana",
            "unknown system kind 'banana'",
        ),
        (
            JORDAN_SYSTEM + "[command]\nname = witness\ntype = banana\nd = 1e-4\nK = 3\n",
            "type = banana",
            "unknown witness type 'banana'",
        ),
        (
            JORDAN_SYSTEM + f"[command]\nname = scan\nfamily = perturbed-orbit\n{SCAN_D_VALUES}\n",
            "family = perturbed-orbit",
            "the perturbed-orbit family needs a torus system",
        ),
        (
            CAT_SYSTEM + f"[command]\nname = scan\nfamily = banana\n{SCAN_D_VALUES}\n",
            "family = banana",
            "unknown scan family 'banana'",
        ),
        (
            CAT_SYSTEM + "[command]\nname = banana\n",
            "name = banana",
            f"unknown command 'banana'; expected one of {', '.join(cli.COMMANDS)}",
        ),
        (
            CAT_SYSTEM + "[command]\nname = enumerate\nperiod = 2\n[output]\nformat = xml\n",
            "format = xml",
            "output format must be csv or table, got 'xml'",
        ),
        (
            JORDAN_SYSTEM + "[command]\nname = angles\nmax-period = 2\n",
            "name = angles",
            "the angles command needs a toral system",
        ),
        (
            CAT_SYSTEM + "[command]\nname = witness\ntype = jordan\nd = 1e-4\nK = 3\n",
            "name = witness",
            "the witness command needs a jordan system",
        ),
        (
            "[system]\nkind = jordan\nblock = none\ntail = 0.5 0.25\nc = 0\n"
            + "[command]\nname = lemma6\npoint = 0 0\nperiod = 1\n",
            "point = 0 0",
            "the orbit has no unstable direction",
        ),
        (CAT_SYSTEM + CAT_SYSTEM, "[system]", "duplicate section '[system]'"),
        (CAT_SYSTEM + "= 3\n", "= 3", "empty key"),
    ],
    ids=["kind", "witness-type", "torus-family", "scan-family", "command", "format",
         "needs-toral", "needs-jordan", "no-unstable", "duplicate-section", "empty-key"],
)
def test_config_error_names_the_line_of_its_key(tmp_path, capsys, body, bad, message):
    lines = body.splitlines()
    line = len(lines) - lines[::-1].index(bad)
    cfg = write(tmp_path / "bad.cfg", body)
    assert cli.main(["run", cfg]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}:{line}: {message}\n"


def test_unrefined_base_orbit_names_the_line_of_its_period(tmp_path, capsys, monkeypatch):
    solve = sl.shadow.find_periodic_shadow
    monkeypatch.setattr(
        sl.shadow, "find_periodic_shadow",
        lambda *args, **kwargs: replace(solve(*args, **kwargs), converged=False),
    )
    body = (
        "[system]\nkind = perturbed-toral\nmatrix = 2 1; 1 1\namplitude = 0.03\n"
        + f"[command]\nname = scan\nfamily = perturbed-orbit\nperiod = 5\n{SCAN_D_VALUES}\n"
    )
    line = body.splitlines().index("period = 5") + 1
    cfg = write(tmp_path / "bad.cfg", body)
    assert cli.main(["run", cfg]) == 1
    message = "could not refine a base orbit of the perturbed system; reduce the amplitude"
    assert capsys.readouterr().err == f"config error: {cfg}:{line}: {message}\n"


def test_describe_through_main(capsys):
    assert cli.main(["describe", "toral"]) == 0
    assert capsys.readouterr().out == cli.DESCRIPTIONS["toral"]
    assert cli.main(["describe", "banana"]) == 1
    expected = ", ".join(sorted(cli.DESCRIPTIONS))
    assert capsys.readouterr().err == f"unknown system kind 'banana'; expected one of {expected}\n"


def test_missing_config_file(capsys):
    assert cli.run("/nonexistent/path.cfg") == 1
    assert "config error" in capsys.readouterr().err


def test_witness_rotation_command(tmp_path, capsys):
    cfg = write(
        tmp_path / "rot.cfg",
        "[system]\nkind = jordan\nblock = rotation\nl = 1\ntheta = 0.7\nc = 0\n"
        + "[command]\nname = witness\ntype = rotation\nd = 1e-4\nK = 25\nw0 = 1 0\n"
        + f"[output]\ndirectory = {tmp_path}\n",
    )
    assert cli.run(cfg) == 0
    assert "rotation witness" in capsys.readouterr().out
    xi = sl.load_pseudotrajectory(
        tmp_path / "witness.csv",
        sl.jordan_model(block="rotation", size=1, theta=0.7, c=0.0).system,
    )
    assert np.max(np.linalg.norm(xi.points, axis=1)) == pytest.approx(25e-4, rel=1e-9)
