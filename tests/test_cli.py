import argparse
import hashlib
import json
import shlex
from pathlib import Path

import pytest

import mcmrep
import mcmrep.cli
import mcmrep.groebner
from mcmrep.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
X2_TEXT = "vars: x:1, y:1\nnormalization: y\nrelations: x^2\n"
X2_Q = str(ROOT / "perfbench" / "data" / "x2_Q.alg")
F3_TEXT = "field: Fp:3\nvars: x:1, y:1\nnormalization: y\nrelations: x^2 + 2*y^2\n"

# subcommand -> the options it reads, and a minimal runnable argument list
_POINT_SPACE = {"--family", "--algebra", "--field", "--shifts", "--json"}
OPTIONS = {
    "validate": {"--family", "--algebra", "--json"},
    "hilbert": {"--family", "--algebra", "--json", "--degree-bound"},
    "repeqs": _POINT_SPACE,
    "check-point": _POINT_SPACE | {"--point"},
    "indec": _POINT_SPACE | {"--point"},
    "isom": _POINT_SPACE | {"--point1", "--point2"},
    "census": _POINT_SPACE | {"--q", "--budget"},
    "spread": {"--shifts", "--json"},
    "family": {"--module", "--n", "--json"},
}
BASE_ARGS = {
    "validate": ["--family", "x2"],
    "hilbert": ["--family", "x2"],
    "repeqs": ["--family", "x2", "--shifts", "0,1"],
    "check-point": ["--family", "x2", "--shifts", "0,1", "--point", "0,0,1,0"],
    "indec": ["--family", "x2", "--shifts", "0,1", "--point", "0,0,1,0"],
    "isom": ["--family", "x2", "--shifts", "0,1", "--point1", "0,0,1,0", "--point2", "0,0,2,0"],
    "census": ["--family", "x2", "--shifts", "0,1", "--q", "3"],
    "spread": ["--shifts", "1,4"],
    "family": ["--module", "R"],
}
DROPPED_VALUES = {"--family": "x2", "--algebra": X2_Q, "--field": "Fp:5",
                  "--degree-bound": "12", "--budget": "1000"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_preset(capsys):
    code, out, _ = run(capsys, "validate", "--family", "x2")
    assert code == 0
    assert "valid" in out


def test_validate_file(tmp_path, capsys):
    path = tmp_path / "x2.alg"
    path.write_text(X2_TEXT)
    code, out, _ = run(capsys, "validate", "--algebra", str(path))
    assert code == 0


def test_validate_bad_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("vars: x:1, y:1\nnormalization: y\nrelations: x^2 + y\n")
    code, _, err = run(capsys, "validate", "--algebra", str(path))
    assert code == 1
    assert "not homogeneous" in err


def test_hilbert(capsys):
    code, out, _ = run(capsys, "hilbert", "--family", "x2")
    assert code == 0
    assert "1, 2, 2, 2, 2, 2, 2, 2" in out


def test_hilbert_runs_buchberger_once(capsys, monkeypatch):
    # the series and the per-degree consistency loop share the algebra's
    # one relation ideal handle
    runs = []
    buchberger = mcmrep.groebner.buchberger

    def counted(gens):
        runs.append(gens)
        return buchberger(gens)

    monkeypatch.setattr(mcmrep.groebner, "buchberger", counted)
    code, _, _ = run(capsys, "hilbert", "--family", "x2", "--degree-bound", "20")
    assert code == 0
    assert len(runs) == 1


def test_repeqs(capsys):
    code, out, _ = run(capsys, "repeqs", "--family", "x2", "--shifts", "0,1")
    assert code == 0
    assert "unknowns: 4" in out
    assert "generators: 4" in out
    assert "u1" in out and "u4" in out


def test_check_point(capsys):
    code, out, _ = run(capsys, "check-point", "--family", "x2", "--shifts", "0,1",
                       "--point", "0,0,1,0")
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "check-point", "--family", "x2", "--shifts", "0,1",
                       "--point", "1,0,0,0")
    assert code == 1 and "False" in out


def test_isom(capsys):
    code, out, _ = run(capsys, "isom", "--family", "x2", "--shifts", "0,1",
                       "--point1", "0,0,1,0", "--point2", "0,1,0,0")
    assert code == 0 and "isomorphic: False" in out
    # conjugate of the R point by diag(1, 2): c = 2
    code, out, _ = run(capsys, "isom", "--family", "x2", "--shifts", "0,1",
                       "--point1", "0,0,1,0", "--point2", "0,0,2,0")
    assert code == 0 and "isomorphic: True" in out


def test_indec(capsys):
    code, out, _ = run(capsys, "indec", "--family", "x2", "--shifts", "0,1",
                       "--point", "0,0,1,0")
    assert code == 0 and "indecomposable: True" in out
    code, out, _ = run(capsys, "indec", "--family", "x2", "--shifts", "0,1",
                       "--point", "0,0,0,0")
    assert code == 0 and "indecomposable: False" in out


@pytest.mark.parametrize("field,bad", [("Q", "1/0,0,0,0"), ("Fp:7", "1/7,0,0,0")],
                         ids=["Q", "Fp7"])
@pytest.mark.parametrize("command,points", [
    ("check-point", ("--point", None)),
    ("indec", ("--point", None)),
    ("isom", ("--point1", None, "--point2", "0,0,1,0")),
    ("isom", ("--point1", "0,0,1,0", "--point2", None)),
], ids=["check-point", "indec", "isom-point1", "isom-point2"])
def test_point_without_a_value_is_refused(capsys, command, points, field, bad):
    # 1/0 is no rational number, and 1/7 has no value in F_7
    points = [bad if p is None else p for p in points]
    code, out, err = run(capsys, command, "--family", "x2", "--field", field,
                         "--shifts", "0,1", *points)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and bad.split(",")[0] in err


def test_hilbert_refuses_negative_degree_bound(tmp_path, capsys):
    path = tmp_path / "h.json"
    code, out, err = run(capsys, "hilbert", "--family", "x2", "--degree-bound", "-3",
                         "--json", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--degree-bound" in err
    assert not path.exists()
    code, out, _ = run(capsys, "hilbert", "--family", "x2", "--degree-bound", "0")
    assert code == 0 and "coefficients (t^0..t^0): 1\n" in out


def test_census(capsys):
    code, out, _ = run(capsys, "census", "--family", "x2", "--shifts", "0,1", "--q", "5")
    assert code == 0
    assert "orbits: 3" in out
    assert "isomorphism classes: 3" in out


def test_census_budget_refusal(capsys):
    code, _, err = run(capsys, "census", "--family", "x2", "--shifts", "0,1",
                       "--q", "5", "--budget", "10")
    assert code == 2
    assert "budget" in err


def test_census_over_matching_prime_field(tmp_path, capsys):
    q_path, p_path = tmp_path / "q.json", tmp_path / "p.json"
    code, q_out, _ = run(capsys, "census", "--family", "x2", "--shifts", "0,1",
                         "--q", "5", "--json", str(q_path))
    assert code == 0
    code, p_out, _ = run(capsys, "census", "--family", "x2", "--field", "Fp:5",
                         "--shifts", "0,1", "--q", "5", "--json", str(p_path))
    assert code == 0
    assert p_out == q_out
    assert p_path.read_bytes() == q_path.read_bytes()
    path = tmp_path / "x2_f5.alg"
    path.write_text("field: Fp:5\n" + X2_TEXT)
    code, out, _ = run(capsys, "census", "--algebra", str(path), "--shifts", "0,1",
                       "--q", "5")
    assert code == 0
    assert "25 points" in out and "orbits: 3" in out


def test_census_at_scale_is_pinned(tmp_path, capsys):
    # x2 (0, 0, 1, 1) q = 3: 7 281 points in 9 orbits, enumerated through
    # 993 torus normal forms; the digests were taken from the plain
    # lexicographic enumeration of every point
    report = tmp_path / "census.json"
    code, out, _ = run(capsys, "census", "--family", "x2", "--shifts", "0,0,1,1", "--q", "3",
                       "--budget", "100000000", "--json", str(report))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fd0ec2e184b71c3c0f41b57396893fa0f8770affea666b115b87c3367c0ee95f"
    )
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "7e5c6a4e484fa16d0d7d2d69f7b276b7b7104e64f4c98ebe445e6f0e1340251c"
    )


def test_hilbert_is_pinned(tmp_path, capsys):
    # k[x, y, z, w]/(x^3 - yzw) over S = k[y, z, w]: a Hilbert polynomial
    # with coefficients 3/2; the CI runs the same command as a fresh process
    # against the same files
    data = ROOT / "tests" / "data"
    report = tmp_path / "hilbert.json"
    code, out, _ = run(capsys, "hilbert", "--algebra", str(data / "x3_yzw.alg"),
                       "--json", str(report))
    assert code == 0
    assert out == (data / "hilbert_x3_yzw.out").read_text()
    assert report.read_bytes() == (data / "hilbert_x3_yzw.json").read_bytes()


def test_labelled_census_is_pinned(tmp_path, capsys):
    # x2 (0, 1) q = 5 with the three named representatives of type (0, 1):
    # 25 points in 3 orbits, each with its label, the census the scale pin
    # above does not cover
    report = tmp_path / "census.json"
    code, out, _ = run(capsys, "census", "--family", "x2", "--shifts", "0,1", "--q", "5",
                       "--json", str(report))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6829c0e239e69488f6b6fe87ed87dd2028a82a95fd70935fc1b9b7f12d2e68d8"
    )
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "e95a6b05546d1548907dcdc4d99b25cbfdf4f3f54c9d11adfb3e6487fb07634a"
    )


def test_repeqs_is_pinned_on_repeat_runs(tmp_path, capsys):
    # x2 (0, 1, 1, 2): 15 unknowns and 16 generators; the digests were taken
    # when every call built its own parameter space, and two runs in one
    # process must both match them
    report = tmp_path / "repeqs.json"
    for _ in range(2):
        code, out, _ = run(capsys, "repeqs", "--family", "x2", "--shifts", "0,1,1,2",
                           "--json", str(report))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "96a97984b95b2920a075b62f20ac2f63f99b83cac9c32306291ad838c79b073d"
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "aeb51bb5dc719eda5d26b6859b3c75c1dde6e2a695f4a8705efcd3326ce1537e"
        )


def test_census_refuses_field_mismatch(tmp_path, capsys):
    code, out, err = run(capsys, "census", "--family", "x2", "--field", "Fp:7",
                         "--shifts", "0,1", "--q", "5")
    assert code == 1
    assert out == ""
    assert "F_5" in err and "F_7" in err
    path = tmp_path / "x2_f3.alg"
    path.write_text("field: Fp:3\n" + X2_TEXT)
    code, out, err = run(capsys, "census", "--algebra", str(path), "--shifts", "0,1",
                         "--q", "5")
    assert code == 1
    assert out == ""
    assert "F_5" in err and "F_3" in err


def test_spread(capsys):
    code, out, _ = run(capsys, "spread", "--shifts", "1,4")
    assert code == 0
    assert "g_min = 1, g_max = 4, spread = 3" in out
    assert "rank over S: 2" in out


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "--module", "In", "--n", "3")
    assert code == 0
    assert "I_3" in out and "indecomposable: True" in out


def test_family_refuses_n_for_module_R(tmp_path, capsys):
    # R takes no parameter: --n is refused, not ignored, and no report is written
    report = tmp_path / "family.json"
    code, out, err = run(capsys, "family", "--module", "R", "--n", "3", "--json", str(report))
    assert code == 1
    assert out == ""
    assert err == "error: --n applies to --module In only\n"
    assert not report.exists()


def test_json_report_stable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(capsys, "census", "--family", "x2", "--shifts", "0,1",
                         "--q", "3", "--json", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert report["orbit_count"] == 3
    assert report["group_order"] == 12
    assert "version" in report


def test_repeqs_json_schema(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "repeqs", "--family", "x2", "--shifts", "0,1",
                     "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert len(report["unknowns"]) == 4
    assert report["unknowns"][0] == {
        "name": "u1", "generator": "x", "row": 1, "col": 1, "monomial": [1],
    }
    assert len(report["generators"]) == 4


def _declared_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }


def test_each_subcommand_declares_the_options_it_reads():
    declared = _declared_options()
    assert declared == OPTIONS
    assert sum(len(options) for options in declared.values()) == 43


@pytest.mark.parametrize("command,option", [
    (command, option)
    for command in OPTIONS
    for option in sorted(set(DROPPED_VALUES) - OPTIONS[command])
], ids=lambda x: x)
def test_option_a_subcommand_does_not_read_is_refused(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, *BASE_ARGS[command], option, DROPPED_VALUES[option]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--family", "x3"],
    ["family", "--module", "I"],
], ids=["family", "module"])
def test_preset_names_outside_their_choices_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_algebra_file_computes_over_its_own_field(tmp_path, capsys):
    # x = [[0, y], [y, 0]] squares to y^2, a point over F_3 but not over QQ
    path = tmp_path / "f3.alg"
    path.write_text(F3_TEXT)
    argv = ["check-point", "--algebra", str(path), "--shifts", "0,0", "--point", "0,1,1,0"]
    assert run(capsys, *argv) == (0, "valid point: True\n", "")
    for field in ("Q", "Fp:5"):
        code, out, err = run(capsys, *argv, "--field", field)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "GF(3)" in err


@pytest.mark.parametrize("point", ["0,0,1,0", "1,0,0,0", "0,0,1/2,0", "0,3,-1,0"])
def test_algebra_over_Q_reduces_modulo_p(capsys, point):
    args = ["--field", "Fp:5", "--shifts", "0,1", "--point", point]
    from_file = run(capsys, "check-point", "--algebra", X2_Q, *args)
    from_preset = run(capsys, "check-point", "--family", "x2", *args)
    assert from_file == from_preset


@pytest.mark.parametrize("spec", ["Fp:abc", "F7", "Fp:"])
def test_bad_field_spec_is_refused(capsys, spec):
    code, out, err = run(capsys, "repeqs", "--family", "x2", "--field", spec,
                         "--shifts", "0,1")
    assert code == 1
    assert out == ""
    assert err == f"error: unknown field {spec!r} (use Q or Fp:<p>)\n"


def test_census_refuses_negative_budget(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, out, err = run(capsys, "census", "--family", "x2", "--shifts", "0,1", "--q", "5",
                         "--budget", "-5", "--json", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--budget" in err
    assert not path.exists()


def _without(argv, option):
    i = argv.index(option)
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("command", [c for c in OPTIONS if "--family" in OPTIONS[c]])
def test_family_and_algebra_together_are_a_usage_error(tmp_path, capsys, command):
    # the F_3 file would make the check-point line valid; it must not be ignored
    path = tmp_path / "f3.alg"
    path.write_text(F3_TEXT)
    with pytest.raises(SystemExit) as exc:
        main([command, *BASE_ARGS[command], "--algebra", str(path)])
    assert exc.value.code == 2
    assert "not allowed with argument --family" in capsys.readouterr().err


@pytest.mark.parametrize("command", [c for c in OPTIONS if "--family" in OPTIONS[c]])
def test_missing_algebra_source_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *_without(BASE_ARGS[command], "--family")])
    assert exc.value.code == 2
    assert "one of the arguments --family --algebra is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", [c for c in OPTIONS if "--shifts" in OPTIONS[c]])
def test_missing_shifts_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *_without(BASE_ARGS[command], "--shifts")])
    assert exc.value.code == 2
    assert "the following arguments are required: --shifts" in capsys.readouterr().err


def test_empty_shifts_is_the_empty_type(capsys):
    assert run(capsys, "repeqs", "--family", "x2", "--shifts", "") == (
        0, "unknowns: 0\ngenerators: 0\n", "")


@pytest.mark.parametrize("command", [c for c in OPTIONS if "--shifts" in OPTIONS[c]])
@pytest.mark.parametrize("shifts, bad", [("0,a", "a"), ("0, 1.5", "1.5"), ("1,,2", "")])
def test_non_integer_shift_is_refused(capsys, command, shifts, bad):
    argv = _without(BASE_ARGS[command], "--shifts") + ["--shifts", shifts]
    assert run(capsys, command, *argv) == (1, "", f"error: --shifts: {bad!r} is not an integer\n")


def _readme_cli_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mcmrep ")]


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    lines = _readme_cli_lines()
    assert sorted(argv[0] for argv in lines) == sorted(OPTIONS)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        # every option of the subcommand, with one of --family and --algebra
        declared = OPTIONS[argv[0]]
        used = {a for a in argv if a.startswith("--")}
        assert used in ([declared - {s} for s in declared & {"--family", "--algebra"}]
                         or [declared])
        argv = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]
        assert run(capsys, *argv)[0] == 0, argv


# indec / isom / check-point runs and their answers, taken before the decide
# path moved to the points' own coefficient maps: x2 over QQ (Fraction
# coordinates) at ranks 2-4, x2 over F_7, and the point mu(x) = [[0, -y],
# [y, 0]] of x2y2 = k[x,y]/(x^2 + y^2), conjugated; "X2Y2" names its file
X2Y2_TEXT = "vars: x:1, y:1\nnormalization: y\nrelations: x^2 + y^2\n"
DECIDE_PINS = [
    (["indec", "--family", "x2", "--shifts", "0,1", "--point=-1/2,-1/2,1/2,1/2"], True),
    (["isom", "--family", "x2", "--shifts", "0,1", "--point1=-1/2,-1/2,1/2,1/2",
      "--point2=0,-1/2,0,0"], False),
    (["indec", "--family", "x2", "--shifts", "0,1", "--point=0,0,0,0"], False),
    (["isom", "--family", "x2", "--shifts", "0,1", "--point1=0,0,0,0",
      "--point2=1/2,-1/2,1/2,-1/2"], False),
    (["indec", "--family", "x2", "--shifts", "0,1,2", "--point=0,1/2,1/4,0,-1/2,-1/4,1,1/2"],
     False),
    (["isom", "--family", "x2", "--shifts", "0,1,2", "--point1=0,1/2,1/4,0,-1/2,-1/4,1,1/2",
      "--point2=-1,2,3/2,-1/2,1,3/4,0,0"], False),
    (["indec", "--family", "x2", "--shifts", "0,1,1,2",
      "--point=-1,0,-1,1/2,1/2,0,1/2,-1/4,1,-1/2,5/4,-5/8,-1,1/2,-1/4"], False),
    (["isom", "--family", "x2", "--shifts", "0,1,1,2",
      "--point1=-1,0,-1,1/2,1/2,0,1/2,-1/4,1,-1/2,5/4,-5/8,-1,1/2,-1/4",
      "--point2=-1,3/2,1/4,5/4,-1/2,1/2,1/4,3/4,-1,1/2,3/4,7/4,1/2,-1/4,-1/4"], True),
    (["indec", "--family", "x2", "--field", "Fp:7", "--shifts", "0,1", "--point=4,5,1,3"], True),
    (["isom", "--family", "x2", "--field", "Fp:7", "--shifts", "0,1", "--point1=4,5,1,3",
      "--point2=0,0,0,0"], False),
    (["indec", "--family", "x2", "--field", "Fp:7", "--shifts", "1,1", "--point=0,0,0,0"],
     False),
    (["isom", "--family", "x2", "--field", "Fp:7", "--shifts", "1,1", "--point1=0,0,0,0",
      "--point2=1,4,5,6"], False),
    (["indec", "--algebra", "X2Y2", "--shifts", "0,0", "--point=1,-4,1/2,-1"], False),
    (["isom", "--algebra", "X2Y2", "--shifts", "0,0", "--point1=1,-4,1/2,-1",
      "--point2=0,-1,1,0"], True),
    (["indec", "--algebra", "X2Y2", "--field", "Fp:7", "--shifts", "0,0", "--point=3,5,5,4"],
     False),
    (["isom", "--algebra", "X2Y2", "--field", "Fp:7", "--shifts", "0,0", "--point1=3,5,5,4",
      "--point2=0,-1,1,0"], True),
]
DECIDE_KEYS = {"indec": "indecomposable", "isom": "isomorphic"}


def _pinned_report(command, key, answer):
    value = "true" if answer else "false"
    return (f'{{\n  "version": "{mcmrep.__version__}",\n  "command": "{command}",\n'
            f'  "{key}": {value}\n}}\n')


@pytest.mark.parametrize("argv,answer", DECIDE_PINS)
def test_decide_output_is_pinned(tmp_path, capsys, argv, answer):
    alg = tmp_path / "x2y2.alg"
    alg.write_text(X2Y2_TEXT)
    report = tmp_path / "report.json"
    argv = [str(alg) if a == "X2Y2" else a for a in argv]
    key = DECIDE_KEYS[argv[0]]
    assert run(capsys, *argv, "--json", str(report)) == (0, f"{key}: {answer}\n", "")
    assert report.read_text() == _pinned_report(argv[0], key, answer)


def test_failing_check_point_output_is_pinned(tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["check-point", "--family", "x2", "--shifts", "0,1", "--point=1,1/3,0,0"]
    assert run(capsys, *argv, "--json", str(report)) == (1, "valid point: False\n", "")
    assert report.read_text() == _pinned_report("check-point", "valid", False)


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # the parser is built on the first main call and reused; a command line
    # it rejects leaves it as it was for the next call
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k))
    mcmrep.cli._parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["census", "--family", "x2", "--q", "13"])
    assert exc.value.code == 2
    assert "--shifts" in capsys.readouterr().err
    report = tmp_path / "census.json"
    code, out, err = run(capsys, "census", "--algebra", X2_Q, "--shifts", "0,1", "--q", "13",
                         "--json", str(report))
    assert built.count("mcmrep") == 1
    assert (code, err) == (0, "")
    assert out == (ROOT / "perfbench" / "data" / "census_x2_q13.out").read_text()
    assert report.read_bytes() == (ROOT / "perfbench" / "data" / "census_x2_q13.json").read_bytes()


def test_dinf_census_matches_its_pins(tmp_path, capsys):
    # D-infinity (0, 0, 1) at q = 5, which CI also runs in a fresh process
    # against the same files; the pins were taken before the search solved
    # its linear checks
    data = ROOT / "tests" / "data"
    report = tmp_path / "census.json"
    code, out, err = run(capsys, "census", "--algebra", str(data / "dinf.alg"),
                         "--shifts", "0,0,1", "--q", "5", "--json", str(report))
    assert (code, err) == (0, "")
    assert out == (data / "census_dinf_001_q5.out").read_text()
    assert report.read_bytes() == (data / "census_dinf_001_q5.json").read_bytes()


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_algebra_file_is_refused(tmp_path, capsys, where):
    path = tmp_path / "missing.alg" if where == "missing" else tmp_path
    code, out, err = run(capsys, "repeqs", "--algebra", str(path), "--shifts", "0,1")
    assert (code, out) == (1, "")
    reason = "No such file or directory" if where == "missing" else "Is a directory"
    assert err == f"error: cannot read --algebra {path}: {reason}\n"


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_json_path_is_refused(tmp_path, capsys, where):
    # the census is printed, then the report cannot be written
    path = tmp_path / "no" / "c.json" if where == "missing-directory" else tmp_path
    argv = ["census", "--family", "x2", "--shifts", "0,1", "--q", "5"]
    printed = run(capsys, *argv)[1]
    code, out, err = run(capsys, *argv, "--json", str(path))
    assert (code, out) == (1, printed)
    reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
    assert err == f"error: cannot write --json {path}: {reason}\n"
