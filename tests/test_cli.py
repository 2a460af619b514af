import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import count_hermiticity_checks, no_child_left  # noqa: F401  (autouse fixture)
from pilotwave import cli, trajectories
from pilotwave.cli import METHODS, main
from pilotwave.currents import derive_current_table
from pilotwave.expr import contains_time
from pilotwave.operators import OperatorApplier, hermitize, load_hamiltonian, require_hermitian

ROOT = Path(__file__).resolve().parents[1]

FREE = 'dim = 1\nterm [2] = "-0.5"\n'
QP = 'dim = 1\nterm [1] = "-i*q1"\n'
P4 = 'dim = 1\nterm [4] = "1"\n'
STD2D = 'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n'
HO = 'dim = 1\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/2"\n'
# -(1/2) d/dq a(q) d/dq + (q-20)^2/2 with a = 1 + 0.1 cos(pi q / 10): the variable
# mass keeps it on the step-by-step paths
VARIABLE_MASS_HO = (
    'dim = 1\nterm [2] = "-0.5 - 0.05*cos(0.3141592653589793*q1)"\n'
    'term [1] = "0.05*0.3141592653589793*sin(0.3141592653589793*q1)"\nterm [0] = "(q1-20)^2/2"\n'
)
# the free particle with a drive: explicit t keeps it on RK4
DRIVEN_FREE = FREE + 'term [0] = "0.1*cos(t)"\n'

GAUSS = "state = gaussian\ncenter = [18.0]\nwidth = 0.5\nwavevector = [1.0]\n"
GAUSS2D = "state = gaussian\ncenter = [10.0, 10.0]\nwidth = 1.0\nwavevector = [1.0, 2.0]\n"
GROUND = "state = ho-eigenstate\nlevels = [0]\ncenter = [20.0]\n"


@pytest.fixture
def ham(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_check_hermitian(ham, capsys):
    assert main(["check", ham("free.ham", FREE)]) == 0
    assert "Hermitian: yes" in capsys.readouterr().out


def test_check_non_hermitian_lists_slots(ham, capsys):
    assert main(["check", ham("qp.ham", QP)]) == 1
    out = capsys.readouterr().out
    assert "Hermitian: no" in out
    assert "[0]" in out


def test_check_first_derivative_slot(ham, capsys):
    assert main(["check", ham("d.ham", 'dim = 1\nterm [1] = "1"\n')]) == 1
    assert "[1]" in capsys.readouterr().out


def test_check_samples_the_default_box(ham, capsys):
    # exp(-(q1-20)^2) is about 1e-141 at the origin; a real first-order
    # coefficient is never Hermitian, and [0, 40) sees it at full strength
    path = ham("bump.ham", 'dim = 1\nterm [2] = "-0.5"\nterm [1] = "exp(-(q1-20)^2)"\n')
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "Hermitian: no" in out
    assert "slot n = [0]" in out and "slot n = [1]" in out


def test_a_first_order_bump_is_derived_and_evolved(ham, tmp_path, capsys):
    """exp(-10000*(q1-20.3)^2) is exactly 0.0 in doubles except within 0.273 of
    20.3, where most of the 32 sample points never land.  derive keeps it in
    the provenance and the table, and simulate evolves it: a real first-order
    coefficient does not conserve the norm, so the run ends on norm drift."""
    path = ham("bump.ham", 'dim = 1\nterm [2] = "-0.5"\nterm [1] = "exp(-10000*(q1-20.3)^2)"\n')
    assert main(["derive", path]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["provenance"] == "DifferentialOperator(dim=1, {[1]: exp(-10000.0*(q1 - 20.3)^2), [2]: -0.5})"
    assert {"n": [0], "m": [0], "expression": "i*exp(-10000.0*(q1 - 20.3)^2)"} in table["axes"][0]["entries"]
    state = ham("g.st", "state = gaussian\ncenter = [20.3]\nwidth = 1\nwavevector = [1]\n")
    assert main(["simulate", path, "--state", state, "--grid", "1024", "--out", str(tmp_path / "run")]) == 3
    assert "error: norm drift 2.018e-05 at t=0.00307604 exceeds 1e-06" in capsys.readouterr().err


@pytest.mark.parametrize("schedule, drift", [
    ([], "1.392e-06 at t=0.01"),
    (["--dt", "1e-3", "--steps", "1000", "--stride", "1"], "1.113e-06 at t=0.008"),
], ids=["series", "rk4"])
def test_a_complex_potential_is_not_diagonalized(schedule, drift, ham, tmp_path, capsys):
    """An anti-Hermitian bump that the sampled check misses.  At stride 1 RK4
    would apply H 4,000 times, above 256^2 / 32, but h_0 is not real, so the
    run is not diagonalized: eigh reads one triangle of the matrix and would
    evolve only its Hermitian part.  Both step-by-step paths end on norm drift."""
    path = ham("bump.ham", 'dim = 1\nterm [2] = "-0.5"\n'
                           'term [0] = "(q1-20)^2/8 + 1e-3*i*exp(-100*(q1-20.3)^2)"\n')
    state = ham("g.st", "state = gaussian\ncenter = [20]\nwidth = 1\nwavevector = [1]\n")
    argv = ["simulate", path, "--state", state, "--grid", "256", *schedule, "--out", str(tmp_path / "run")]
    assert main(argv) == 3
    assert f"error: norm drift {drift} exceeds 1e-06" in capsys.readouterr().err


def test_check_malformed_exits_2(ham, capsys):
    assert main(["check", ham("bad.ham", "dim = \n")]) == 2
    assert main(["check", str("no-such-file.ham")]) == 2


@pytest.mark.parametrize(
    "coefficient, literal", [("1e200*1e200*q1", "1e+200*1e+200"), ("1e200^2*q1", "1e+200^2")]
)
def test_check_names_an_overflowing_constant(coefficient, literal, ham, capsys):
    path = ham("big.ham", f'# constants that overflow\ndim = 1\nterm [0] = "{coefficient}"\n')
    assert main(["check", path]) == 3
    err = capsys.readouterr().err
    assert "(first fault: overflow" in err and f"in '{literal}')" in err


def test_derive_json(ham, capsys):
    assert main(["derive", ham("free.ham", FREE)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 1
    entries = doc["axes"][0]["entries"]
    assert len(entries) == 2


def test_derive_empty_table_for_potential(ham, capsys):
    assert main(["derive", ham("v.ham", 'dim = 1\nterm [0] = "cos(q1)"\n')]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["axes"][0]["entries"] == []


def test_derive_p4_four_entries(ham, capsys):
    assert main(["derive", ham("p4.ham", P4)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["axes"][0]["entries"]) == 4


def test_derive_refuses_non_hermitian(ham, capsys):
    assert main(["derive", ham("qp.ham", QP)]) == 1
    assert "--hermitize" in capsys.readouterr().err


def test_derive_hermitize_latex(ham, capsys):
    assert main(["derive", ham("qp.ham", QP), "--hermitize", "--format", "latex"]) == 0
    assert "j_{1}" in capsys.readouterr().out


def test_derive_out_file(ham, tmp_path):
    out = tmp_path / "table.json"
    assert main(["derive", ham("free.ham", FREE), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dimension"] == 1


def test_simulate_end_to_end(ham, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            ham("free.ham", FREE),
            "--state",
            ham("gauss.st", GAUSS),
            "--grid",
            "256",
            "--domain",
            "40",
            "--dt",
            "1e-3",
            "--steps",
            "100",
            "--stride",
            "20",
            "--trajectories",
            "40",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert max(summary["norm_drift"]) < 1e-6
    assert summary["truncated_fraction"] < 0.01
    assert (out / "snapshot_0000.json").exists()
    assert (out / "trajectories.csv").exists()
    assert (out / "density.svg").exists()
    assert (out / "trajectories.svg").exists()
    rows = (out / "trajectories.csv").read_text().strip().splitlines()
    assert rows[0] == "t,particle_id,q1,truncated"
    assert len(rows) == 1 + 6 * 40  # six recorded times, forty particles


def test_simulate_stationary_trajectories_flat(ham, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            ham("ho.ham", HO),
            "--state",
            ham("ground.st", GROUND),
            "--grid",
            "256",
            "--domain",
            "40",
            "--dt",
            "1e-3",
            "--steps",
            "50",
            "--stride",
            "25",
            "--trajectories",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = (out / "trajectories.csv").read_text().strip().splitlines()[1:]
    by_particle = {}
    for row in rows:
        t, pid, q, flag = row.split(",")
        by_particle.setdefault(pid, []).append(float(q))
    for positions in by_particle.values():
        assert max(positions) - min(positions) < 1e-9


def test_simulate_stability_violation_exits_3(ham, tmp_path):
    code = main(
        [
            "simulate",
            ham("free.ham", FREE),
            "--state",
            ham("gauss.st", GAUSS),
            "--grid",
            "256",
            "--domain",
            "40",
            "--dt",
            "1.0",
            "--steps",
            "10",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 3
    assert not list((tmp_path / "x").glob("snapshot_*"))  # refused at setup, before any snapshot


def test_simulate_non_hermitian_exits_1(ham, tmp_path):
    code = main(
        [
            "simulate",
            ham("qp.ham", QP),
            "--state",
            ham("gauss.st", GAUSS),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1


BUMP80 = 'dim = 1\nterm [2] = "-0.5"\nterm [1] = "exp(-(q1-80)^2)"\n'
GAUSS80 = "state = gaussian\ncenter = [80.0]\nwidth = 1.0\nwavevector = [1.0]\n"


def test_compare_verifies_on_the_grid_box(ham, capsys):
    argv = ["compare", ham("bump80.ham", BUMP80), "--state", ham("g80.st", GAUSS80),
            "--grid", "256", "--domain", "100", "--methods", "canonical"]
    assert main(argv) == 1
    assert "violated slots: [0], [1]" in capsys.readouterr().err
    assert main(argv + ["--hermitize"]) == 0
    # Known limit: check has no grid, so it answers for [0, 40), where the
    # bump at 80 is below the smallest double
    capsys.readouterr()
    assert main(["check", ham("bump80.ham", BUMP80)]) == 0
    assert "Hermitian: yes" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "compare", "equivariance"])
def test_state_errors_come_before_the_verdict(command, ham, capsys):
    # QP is not Hermitian; the missing state file is reported first
    assert main([command, ham("qp.ham", QP), "--state", "no-such-file.st"]) == 2
    assert "cannot read no-such-file.st" in capsys.readouterr().err


def test_compare_methods_2d(ham, capsys):
    code = main(
        [
            "compare",
            ham("std2d.ham", STD2D),
            "--state",
            ham("g2.st", GAUSS2D),
            "--grid",
            "64",
            "--domain",
            "20",
            "--methods",
            "canonical,epstein,born-jordan,second-order",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["methods"]["born-jordan"]["status"] == "inapplicable"
    assert doc["methods"]["epstein"]["status"] == "ok"
    assert doc["pairs"]["canonical vs second-order"]["max_abs_diff"] < 1e-9
    assert doc["pairs"]["canonical vs epstein"]["max_abs_diff"] > 1e-3
    assert doc["pairs"]["canonical vs epstein"]["max_div_diff"] < 1e-8


def test_compare_second_order_inapplicable_to_p4(ham, capsys):
    code = main(
        [
            "compare",
            ham("p4.ham", P4),
            "--state",
            ham("gauss.st", GAUSS),
            "--grid",
            "128",
            "--domain",
            "40",
            "--methods",
            "canonical,second-order",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["methods"]["second-order"]["status"] == "inapplicable"
    assert "second order" in doc["methods"]["second-order"]["reason"]


def test_compare_empty_methods_exits_2(ham):
    assert (
        main(
            [
                "compare",
                ham("free.ham", FREE),
                "--state",
                ham("gauss.st", GAUSS),
                "--methods",
                "",
            ]
        )
        == 2
    )


def test_equivariance_reports_and_repeats(ham, capsys):
    args = [
        "equivariance",
        ham("free.ham", FREE),
        "--state",
        ham("gauss.st", GAUSS),
        "--grid",
        "256",
        "--domain",
        "40",
        "--count",
        "400",
        "--horizon",
        "0.2",
        "--seed",
        "3",
        "--dt",
        "1e-3",
        "--steps",
        "200",
        "--stride",
        "20",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["valid"] is True
    assert report["ks_distance"] < 0.1
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "schedule, horizon",
    [(["--dt", "1e-3", "--steps", "100"], 100 * 1e-3), (["--horizon", "0.1"], 0.1)],
    ids=["fixed", "chosen"],
)
def test_equivariance_reports_the_horizon_it_reached(schedule, horizon, ham, capsys):
    """A fixed schedule ends at steps * dt, whatever --horizon (default 1)
    says; a program-chosen one ends at the requested horizon."""
    argv = ["equivariance", ham("ho.ham", HO), "--state", ham("ground.st", GROUND), "--grid", "64",
            "--domain", "40", "--count", "100", *schedule]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["horizon"] == horizon


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["derive"])  # missing positional
    assert exit_info.value.code == 2


SIMULATE = [
    "simulate", "{free}", "--state", "{gauss}", "--grid", "128", "--dt", "1e-3",
    "--steps", "20", "--stride", "10", "--trajectories", "10", "--out", "{out}",
]
COMPARE = ["compare", "{free}", "--state", "{gauss}", "--grid", "128", "--methods", ",".join(METHODS)]
EQUIVARIANCE = [
    "equivariance", "{free}", "--state", "{gauss}", "--grid", "128", "--count", "50",
    "--horizon", "0.02", "--dt", "1e-3", "--steps", "20",
]
# (argv, sampled verdicts): an operator read from a file gets one, and a
# --hermitize operator, Hermitian by construction, none
ONE_CHECK_COMMANDS = {
    "check": (["check", "{free}"], 1),
    "derive": (["derive", "{free}"], 1),
    "derive --hermitize": (["derive", "{qp}", "--hermitize"], 0),
    "simulate --trajectories": (SIMULATE, 1),
    "simulate --hermitize": ([*SIMULATE, "--hermitize"], 0),
    "compare": (COMPARE, 1),
    "compare --hermitize": ([*COMPARE, "--hermitize"], 0),
    "equivariance": (EQUIVARIANCE, 1),
    "equivariance --hermitize": ([*EQUIVARIANCE, "--hermitize"], 0),
}


@pytest.mark.parametrize("command", ONE_CHECK_COMMANDS)
def test_each_command_checks_hermiticity_once(command, ham, tmp_path, monkeypatch):
    calls = count_hermiticity_checks(monkeypatch)
    files = {"free": ham("free.ham", FREE), "qp": ham("qp.ham", QP),
             "gauss": ham("gauss.st", GAUSS), "out": str(tmp_path / "run")}
    argv, verdicts = ONE_CHECK_COMMANDS[command]
    assert main([arg.format(**files) for arg in argv]) == 0
    assert len(calls) == verdicts


def test_check_and_derive_never_import_numpy(ham, capsys):
    """The symbolic commands run without numpy: in a fresh interpreter, check,
    both derive formats and derive --hermitize leave no numpy module behind,
    whether the operator is Hermitian or not and whether a check faults.
    derive --hermitize samples nothing, so the overflowing potential gets its
    correct current, j_1 = 0, where its sampled verdict faults."""
    big = ham("big.ham", 'dim = 1\nterm [0] = "1e200*1e200*q1"\n')
    files = [ham("drive.ham", 'dim = 2\nterm [2,0] = "-0.5*(1+0.2*cos(q1))"\nterm [0,2] = "-0.5"\n'
                 'term [1,0] = "0.3*i*sin(q2)"\nterm [0,0] = "sqrt(2+cos(q1))*log(3+sin(q2)) + exp(-t)"\n'),
             ham("ho.ham", HO), big]
    script = (
        "import contextlib, io, sys\n"
        "from pilotwave.cli import main\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    for path in sys.argv[1:]:\n"
        "        for argv in (['check'], ['derive'], ['derive', '--format', 'latex'], ['derive', '--hermitize']):\n"
        "            codes.append(main([*argv, path]))\n"
        "    latex = io.StringIO()\n"
        "    with contextlib.redirect_stdout(latex):\n"
        "        codes.append(main(['derive', '--hermitize', '--format', 'latex', sys.argv[-1]]))\n"
        "print(codes, sorted(name for name in sys.modules if name.startswith('numpy.')))\n"
        "print(latex.getvalue(), end='')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *files], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        str([1, 1, 1, 0] + [0, 0, 0, 0] + [3, 3, 3, 0] + [0]) + " []", "j_{1} = 0", ""
    ]
    # a grid command on that operator still stops at the applier's numerical gate
    argv = ["compare", big, "--hermitize", "--state", ham("gauss.st", GAUSS), "--grid", "64"]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == ["error: overflow encountered in multiply in '1e+200*1e+200'"]


def test_traced_derive_records_one_hermiticity_span(ham, tmp_path):
    """perfbench/tracing.py wraps pilotwave functions by name; a rename
    breaks traced benchmark runs, so one traced call runs here."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(spans),
         "--", "derive", ham("ho.ham", HO)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    names = [span["name"] for span in json.loads(spans.read_text())["spans"]]
    assert names.count("currents.derive") == 1
    assert names.count("operators.hermiticity") == 1


def test_traced_names_resolve_in_the_package():
    """perfbench/tracing.py wraps each name in its SPANS table, and counts
    particle stages through `_FlowField.velocities(points, t, active)`.  A
    deleted or renamed one breaks only the traced benchmark runs, so each is
    looked up here."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr in tracing.SPANS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"
    from pilotwave.trajectories import _FlowField

    assert list(inspect.signature(_FlowField.velocities).parameters) == ["self", "points", "t", "active"]


# An operator whose hermitized table prints every node kind (conj, \overline
# and \frac appear in the output).  A change to how nodes are built, walked
# or printed must keep both outputs byte for byte.
GUARD = (
    'dim = 1\nterm [2] = "-0.5*sqrt(2+sin(q1))"\nterm [1] = "i*log(2+cos(q1))/(1+q1^2)"\n'
    'term [0] = "-(q1-20)^2/(3-cos(q1))"\n'
)
GUARD_JSON = """{
  "dimension": 1,
  "provenance": "DifferentialOperator(dim=1, {[0]: 0.5*(-(q1 - 20.0)^2/(3.0 - cos(q1)) + -(q1 - 20.0)^2/(3.0 - cos(q1)) + -1.0*(-i*-sin(q1)/(2.0 + cos(q1))*(1.0 + q1^2) - -i*conj(log(2.0 + cos(q1)))*2.0*q1)/(1.0 + q1^2)^2 + -0.5*(-sin(q1)*2.0*conj(sqrt(2.0 + sin(q1))) - cos(q1)*2.0*cos(q1)/(2.0*conj(sqrt(2.0 + sin(q1)))))/(2.0*conj(sqrt(2.0 + sin(q1))))^2), [1]: 0.5*(i*log(2.0 + cos(q1))/(1.0 + q1^2) + -1.0*-i*conj(log(2.0 + cos(q1)))/(1.0 + q1^2) + 2.0*-0.5*cos(q1)/(2.0*conj(sqrt(2.0 + sin(q1))))), [2]: 0.5*(-0.5*sqrt(2.0 + sin(q1)) + -0.5*conj(sqrt(2.0 + sin(q1))))})",
  "axes": [
    {
      "axis": 1,
      "entries": [
        {
          "n": [
            0
          ],
          "m": [
            0
          ],
          "expression": "i*0.5*(i*log(2.0 + cos(q1))/(1.0 + q1^2) + -1.0*-i*conj(log(2.0 + cos(q1)))/(1.0 + q1^2) + 2.0*-0.5*cos(q1)/(2.0*conj(sqrt(2.0 + sin(q1))))) + -i*0.5*(-0.5*cos(q1)/(2.0*sqrt(2.0 + sin(q1))) + -0.5*cos(q1)/(2.0*conj(sqrt(2.0 + sin(q1)))))"
        },
        {
          "n": [
            0
          ],
          "m": [
            1
          ],
          "expression": "-i*0.5*(-0.5*sqrt(2.0 + sin(q1)) + -0.5*conj(sqrt(2.0 + sin(q1))))"
        },
        {
          "n": [
            1
          ],
          "m": [
            0
          ],
          "expression": "i*0.5*(-0.5*sqrt(2.0 + sin(q1)) + -0.5*conj(sqrt(2.0 + sin(q1))))"
        }
      ]
    }
  ]
}
"""
GUARD_LATEX = r"""j_{1} = \left[\mathrm{i} \, 0.5 \, \left(\frac{\mathrm{i} \, \log\left(2.0 + \cos\left(q_{1}\right)\right)}{1.0 + q_{1}^{2}} + -1.0 \, \frac{-\mathrm{i} \, \overline{\log\left(2.0 + \cos\left(q_{1}\right)\right)}}{1.0 + q_{1}^{2}} + 2.0 \, -0.5 \, \frac{\cos\left(q_{1}\right)}{2.0 \, \overline{\sqrt{2.0 + \sin\left(q_{1}\right)}}}\right) + -\mathrm{i} \, 0.5 \, \left(-0.5 \, \frac{\cos\left(q_{1}\right)}{2.0 \, \sqrt{2.0 + \sin\left(q_{1}\right)}} + -0.5 \, \frac{\cos\left(q_{1}\right)}{2.0 \, \overline{\sqrt{2.0 + \sin\left(q_{1}\right)}}}\right)\right] \psi \, \bar\psi + \left[-\mathrm{i} \, 0.5 \, \left(-0.5 \, \sqrt{2.0 + \sin\left(q_{1}\right)} + -0.5 \, \overline{\sqrt{2.0 + \sin\left(q_{1}\right)}}\right)\right] \psi \, \partial_{q_1}^{1}\bar\psi + \left[\mathrm{i} \, 0.5 \, \left(-0.5 \, \sqrt{2.0 + \sin\left(q_{1}\right)} + -0.5 \, \overline{\sqrt{2.0 + \sin\left(q_{1}\right)}}\right)\right] \partial_{q_1}^{1}\psi \, \bar\psi
"""


def test_derive_hermitize_output_is_pinned(ham, capsys):
    path = ham("guard.ham", GUARD)
    assert main(["derive", "--hermitize", path]) == 0
    assert capsys.readouterr().out == GUARD_JSON
    assert main(["derive", "--hermitize", "--format", "latex", path]) == 0
    assert capsys.readouterr().out == GUARD_LATEX


def test_traced_derive_counts_expression_nodes(ham, tmp_path):
    """perfbench/tracing.py counts distinct node objects by walking the
    dataclass fields of each node; children kept anywhere else would read
    one node per root."""
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(spans),
         "--", "derive", "--hermitize", ham("guard.ham", GUARD), "--out", str(tmp_path / "t.json")],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(spans.read_text())
    assert (record["h_nodes"], record["table_nodes"], record["table_entries"]) == (106, 71, 3)


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, text, code",
    [(["derive", "--hermitize"], QP, 0), (["check"], QP, 1)],
    ids=["derive", "check"],
)
def test_closed_stdout_ends_the_command_quietly(argv, text, code, unbuffered, ham):
    """`pilotwave derive H.ham | head` must not print a traceback, and a
    verdict must survive the reader going away, however stdout is buffered."""
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pilotwave.cli", *argv, ham("op.ham", text)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert done.stderr == b""


BAD_FLAGS = [
    ("simulate", "--dt", "-1"),
    ("simulate", "--dt", "0"),
    ("simulate", "--dt", "nan"),
    ("simulate", "--steps", "-5"),
    ("simulate", "--steps", "0"),
    ("simulate", "--stride", "0"),
    ("simulate", "--substeps", "0"),
    ("simulate", "--trajectories", "-1"),
    ("simulate", "--seed", "-1"),
    ("equivariance", "--seed", "-1"),
    ("equivariance", "--count", "0"),
    ("equivariance", "--horizon", "-1"),
    ("equivariance", "--horizon", "inf"),
    ("equivariance", "--dt", "0"),
    ("equivariance", "--steps", "0"),
    ("equivariance", "--stride", "0"),
    ("equivariance", "--substeps", "0"),
    ("compare", "--grid", "3"),
    ("compare", "--grid", "0"),
    ("compare", "--domain", "-4"),
    ("simulate", "--grid", "64,abc"),
    ("equivariance", "--domain", "nan"),
    ("simulate", "--grid", "8"),
    ("equivariance", "--grid", "64,8"),
]


@pytest.mark.parametrize("command, flag, value", BAD_FLAGS)
def test_invalid_numeric_flag_is_a_usage_error(command, flag, value, ham, capsys, monkeypatch):
    def no_work(text):
        raise AssertionError("the Hamiltonian was loaded before the flags were checked")

    monkeypatch.setattr(cli, "load_hamiltonian", no_work)
    with pytest.raises(SystemExit) as exit_info:
        main([command, ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("grid = [3]", "grid is set with --grid, not in a state file"),
        ("grid = [0]", "grid is set with --grid, not in a state file"),
        ("domain = [-4]", "domain is set with --domain, not in a state file"),
        ("grid = [64.5]", "grid is set with --grid, not in a state file"),
        ("widht = 0.2", "unknown key 'widht' for gaussian (it takes center, width, wavevector)"),
    ],
    ids=["grid-3", "grid-0", "domain-minus-4", "grid-64.5", "typo-widht"],
)
def test_invalid_state_file_grid_is_a_usage_error(entry, message, ham, capsys):
    """Only --grid and --domain set the grid: a state file's grid or domain line is
    refused whatever its value, as is a key its state kind does not take."""
    state = ham("bad.st", GAUSS + entry + "\n")
    assert main(["compare", ham("free.ham", FREE), "--state", state]) == 2
    assert f"line 5: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("lines", [
    ["width = 2.0"], ["center = [22.0]"], ["wavevector = [2.0]"], ["state = gaussian"],
], ids=["width", "center", "wavevector", "state"])
def test_repeated_state_file_key_is_a_usage_error(lines, ham, capsys):
    """A second line for a key would silently win over the first."""
    state = ham("dup.st", GAUSS + "".join(line + "\n" for line in lines))
    assert main(["compare", ham("free.ham", FREE), "--state", state]) == 2
    key = lines[-1].split("=")[0].strip()
    assert f"line {4 + len(lines)}: duplicate '{key}' line" in capsys.readouterr().err


def test_repeated_component_key_is_a_usage_error(ham, capsys):
    """A second value for a key inside one component line would silently win."""
    state = ham("dup.st", "state = superposition\n"
                "component = 1 | gaussian center=[20] width=0.5 width=2.0\n")
    assert main(["compare", ham("free.ham", FREE), "--state", state]) == 2
    assert "line 2: duplicate 'width' in one component" in capsys.readouterr().err


@pytest.mark.parametrize("state, message", [
    ("state = ho-eigenstate\nlevels = [-1]\n", "levels must be non-negative integers, got [-1.0]"),
    ("state = ho-eigenstate\nlevels = [2.5]\n", "levels must be non-negative integers, got [2.5]"),
    (GROUND + "frequency = -1\n", "frequency must be positive and finite, got -1.0"),
    (GROUND + "mass = 0\n", "mass must be positive and finite, got 0.0"),
    ("state = gaussian\nwidth = 0\n", "width must be positive and finite, got 0.0"),
    ("state = superposition\ncomponent = 1 | ho-eigenstate mass=nan\n",
     "mass must be positive and finite, got nan"),
    ("state = gaussian\ncenter = [nan]\n", "center must be finite, got [nan]"),
    ("state = superposition\ncomponent = 1 | gaussian center=[inf]\n", "center must be finite, got [inf]"),
    ("state = gaussian\nwavevector = [nan]\n", "wavevector must be finite, got [nan]"),
    ("state = plane-wave\nwavevector = -inf\n", "wavevector must be finite, got -inf"),
    ("state = ho-eigenstate\ncenter = [nan]\n", "center must be finite, got [nan]"),
], ids=["levels-minus-1", "levels-2.5", "frequency-minus-1", "mass-0", "width-0", "component-mass-nan",
        "center-nan", "component-center-inf", "wavevector-nan", "plane-wave-minus-inf", "ho-center-nan"])
def test_invalid_preset_value_is_a_usage_error(state, message, ham, tmp_path, capsys):
    """A preset value outside its range is refused, naming the key, before any file is written."""
    run = tmp_path / "run"
    argv = ["simulate", ham("ho.ham", HO), "--state", ham("bad.st", state),
            "--grid", "64", "--steps", "10", "--out", str(run)]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not run.exists()


def test_repeated_compare_method_is_a_usage_error(ham, capsys, monkeypatch):
    def no_work(text):
        raise AssertionError("the Hamiltonian was loaded before --methods was checked")

    monkeypatch.setattr(cli, "load_hamiltonian", no_work)
    argv = ["compare", ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS)]
    assert main(argv + ["--methods", "canonical,epstein,canonical"]) == 2
    assert "--methods lists 'canonical' twice" in capsys.readouterr().err


@pytest.mark.parametrize("methods", ["", ","])
def test_empty_compare_method_list_is_a_usage_error(methods, ham, capsys):
    argv = ["compare", ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), "--methods", methods]
    assert main(argv) == 2
    assert "--methods must list at least one method" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "equivariance"])
def test_state_file_grid_below_the_operator_floor_is_a_usage_error(command, ham, tmp_path, capsys):
    """The floor lives in --grid alone: a state file's grid line is refused."""
    state = ham("coarse.st", GAUSS + "grid = [8]\n")
    out = ["--out", str(tmp_path / "run")] if command == "simulate" else []
    assert main([command, ham("free.ham", FREE), "--state", state, *out]) == 2
    assert "line 5: grid is set with --grid, not in a state file" in capsys.readouterr().err


def test_compare_canonical_accepts_a_grid_below_the_operator_floor(ham, capsys):
    argv = ["compare", ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), "--grid", "8"]
    assert main(argv) == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dt", "1e-3"], "--dt given without --steps"),
        (["--steps", "20"], "--steps given without --dt"),
        (["--stride", "5"], "--stride given without --dt and --steps"),
        (["--dt", "1e-3", "--stride", "5"], "--dt, --stride given without --steps"),
    ],
    ids=["dt", "steps", "stride", "dt-stride"],
)
def test_equivariance_partial_schedule_is_a_usage_error(flags, message, ham, capsys, monkeypatch):
    def no_work(text):
        raise AssertionError("the Hamiltonian was loaded before the schedule was checked")

    monkeypatch.setattr(cli, "load_hamiltonian", no_work)
    argv = ["equivariance", ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), *flags]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


STD3D = 'dim = 3\nterm [2,0,0] = "-0.5"\nterm [0,2,0] = "-0.5"\nterm [0,0,2] = "-0.5"\n'
GAUSS3D = "state = gaussian\ncenter = [5.0, 5.0, 5.0]\nwidth = 1.0\n"


def test_grid_above_max_grid_points_exits_3(ham, capsys):
    argv = ["compare", ham("std3d.ham", STD3D), "--state", ham("g3.st", GAUSS3D), "--grid", "1024"]
    assert main(argv) == 3
    assert "1073741824 grid points exceed MAX_GRID_POINTS = 16777216" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("simulate", "--trajectories"), ("equivariance", "--count")])
def test_a_particle_count_above_max_particles_exits_3_before_evolve(command, flag, ham, tmp_path, capsys, monkeypatch):
    """A count no host can hold is refused at setup: evolve never runs and simulate
    writes nothing, where numpy's allocation used to fail after both."""
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve ran before the particle count was checked")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    monkeypatch.setattr(trajectories, "evolve", no_evolve)
    out = tmp_path / "run"
    argv = [command, ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), "--grid", "64",
            flag, "1000000000000"] + (["--out", str(out)] if command == "simulate" else [])
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: 1000000000000 particles exceed MAX_PARTICLES = {trajectories.MAX_PARTICLES}"
    ]
    assert not out.exists()


def test_run_above_max_rk4_steps_exits_3(ham, tmp_path, capsys):
    argv = [
        "simulate", ham("driven.ham", DRIVEN_FREE), "--state", ham("gauss.st", GAUSS), "--grid", "64",
        "--dt", "1e-9", "--steps", "1000001", "--out", str(tmp_path / "run"),
    ]
    assert main(argv) == 3
    assert "1000001 RK4 steps exceed MAX_RK4_STEPS = 1000000" in capsys.readouterr().err


QUARTIC = 'dim = 1\nterm [4] = "0.05"\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/8"\n'


@pytest.mark.parametrize("command", ["simulate", "equivariance", "compare"])
def test_overflowing_spectral_radius_exits_3(command, ham, tmp_path, capsys):
    """On a 1e-100 box, k_max^4 overflows a float: every grid command refuses the
    grid at its numerical gate, with one error line and no numpy warning."""
    argv = [command, ham("quartic.ham", QUARTIC), "--state", ham("g.st", "state = gaussian\nwidth = 1e-101\n"),
            "--grid", "64", "--domain", "1e-100"]
    assert main(argv + (["--out", str(tmp_path / "run")] if command == "simulate" else [])) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: derivative factor (i k_1)^4 is not finite on the grid of (64,) points over "
        "(1e-100,); widen the domain"
    ]


@pytest.mark.parametrize("width", ["1e-200", "1e-160", "1e300"])
def test_a_width_whose_envelope_faults_is_a_usage_error(width, ham):
    """(q - c)^2/(4 width^2) divides by zero at 1e-200 (width^2 underflows to 0),
    and overflows at 1e-160 and in width^2 at 1e300: the width is refused with
    exit 2 and one error line, in a process without pytest's warning filters."""
    argv = ["compare", ham("quartic.ham", QUARTIC), "--state", ham("g.st", f"state = gaussian\nwidth = {width}\n"),
            "--grid", "16", "--methods", "canonical"]
    done = subprocess.run([sys.executable, "-m", "pilotwave.cli", *argv],
                          capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"error: width {float(width)} is out of range: (q - c)^2/(4 width^2) overflows"
    ]


ZERO = "is 0 at every grid point and cannot be normalized"


@pytest.mark.parametrize("state, message", [
    ("state = gaussian\ncenter = [1e200]\n", "center 1e+200 is out of range: (q - c)^2 overflows"),
    ("state = gaussian\ncenter = [1e155]\n", "center 1e+155 is out of range: (q - c)^2 overflows"),
    ("state = ho-eigenstate\ncenter = [1e200]\n", "center 1e+200 is out of range: (q - c)^2 overflows"),
    ("state = gaussian\nwavevector = [1e308]\n", "wavevector 1e+308 is out of range: k q overflows"),
    ("state = plane-wave\nwavevector = [1e308]\n", "wavevector 1e+308 is out of range: k q overflows"),
    ("state = ho-eigenstate\nmass = 1e300\nfrequency = 1e300\n", "mass * frequency must be positive and finite, got inf"),
    ("state = gaussian\ncenter = [1000]\n", f"gaussian with center [1000.0] {ZERO}"),
    ("state = ho-eigenstate\ncenter = [1e154]\n", f"ho-eigenstate with center [1e+154] {ZERO}"),
    ("state = superposition\ncomponent = 1 | gaussian center=[20]\ncomponent = -1 | gaussian center=[20]\n",
     f"superposition {ZERO}"),
], ids=["gaussian-center-1e200", "gaussian-center-1e155", "ho-center", "gaussian-wavevector", "plane-wave-wavevector",
        "ho-scale", "gaussian-center-1000", "ho-center-1e154", "cancelling-superposition"])
def test_a_preset_value_that_overflows_is_a_usage_error(state, message, ham):
    """A center, wavevector or oscillator scale whose arithmetic overflows on the grid,
    and a state that is 0 at every grid point (a center far outside the box, or
    components that cancel), are refused with exit 2 and one error line naming
    them, in a process without pytest's warning filters, where numpy's warnings
    would reach stderr."""
    argv = ["compare", ham("quartic.ham", QUARTIC), "--state", ham("s.st", state),
            "--grid", "16", "--methods", "canonical"]
    done = subprocess.run([sys.executable, "-m", "pilotwave.cli", *argv],
                          capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert (done.returncode, done.stderr.splitlines()) == (2, [f"error: {message}"])


ONE_APPLIER_COMMANDS = {
    "simulate without --dt": [
        "simulate", "{free}", "--state", "{gauss}", "--grid", "128", "--steps", "20",
        "--stride", "10", "--trajectories", "10", "--out", "{out}",
    ],
    "equivariance without --dt": [
        "equivariance", "{free}", "--state", "{gauss}", "--grid", "128", "--count", "50",
        "--horizon", "0.02",
    ],
    "compare": [
        "compare", "{free}", "--state", "{gauss}", "--grid", "128", "--methods", ",".join(METHODS),
    ],
}


@pytest.mark.parametrize("command", ONE_APPLIER_COMMANDS)
def test_each_command_realizes_an_operator_once_per_grid(command, ham, tmp_path, monkeypatch):
    """Choosing dt and stepping share one applier, and compare's four
    constructions read the one applier of H on the state's grid."""
    built = []
    original = OperatorApplier.__init__

    def recording(self, H, grid):
        built.append((H, grid))
        original(self, H, grid)

    monkeypatch.setattr(OperatorApplier, "__init__", recording)
    files = {"free": ham("free.ham", FREE), "gauss": ham("gauss.st", GAUSS), "out": str(tmp_path / "run")}
    assert main([arg.format(**files) for arg in ONE_APPLIER_COMMANDS[command]]) == 0
    assert len(built) == 1


def _traced_equivariance_counts(ham, tmp_path, hamiltonian=HO) -> dict:
    """Counters of perfbench/tracing.py around `equivariance` on the 1D
    oscillator ground state: 64 points, 200 particles, horizon 0.1."""
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(spans), "--",
         "equivariance", ham("ho.ham", hamiltonian), "--state", ham("ground.st", GROUND), "--grid", "64",
         "--domain", "40", "--count", "200", "--horizon", "0.1"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text())["counts"]


def test_traced_equivariance_counts_each_layer(ham, tmp_path):
    """perfbench/tracing.py measures the wrapped names; work routed around
    them would read 0 in the per-layer metrics.  The static coefficients are
    evaluated once for the whole run, and the table entries once per
    snapshot.  The variable mass keeps the run on RK4, whose applications
    are counted."""
    counts = _traced_equivariance_counts(ham, tmp_path, VARIABLE_MASS_HO)
    H = require_hermitian(load_hamiltonian(VARIABLE_MASS_HO))
    entries = sum(len(axis) for axis in derive_current_table(H).axes)
    steps = counts["solver.rk4_steps"]
    assert steps == 100  # the step floor: dt from the stability bound needs fewer
    assert counts["operators.apply.calls"] == 4 * steps
    snapshots = counts["currents.eval_current.calls"]
    assert snapshots == steps + 1  # stride 1 below 200 steps
    assert counts["expr.evaluate_on.calls"] == len(H.terms) + entries * snapshots


def test_traced_equivariance_counts_particle_stages(ham, tmp_path):
    """The tracer counts `active.sum()` in each `_FlowField.velocities(points,
    t, active)` call: every live particle at every RK4 stage.  The ground
    state has no node, so 200 particles x 100 snapshot intervals x 4
    substeps x 4 stages."""
    counts = _traced_equivariance_counts(ham, tmp_path)
    assert counts["trajectories.particle_stages"] == 200 * 100 * 4 * 4


DRIVEN_2D = (
    'dim = 2\nterm [2,0] = "-0.5*(1+0.2*cos(q1))"\nterm [0,2] = "-0.5"\n'
    'term [0,0] = "0.1*cos(q2) + 0.5*cos(q1)*sin(3*t)"\n'
)
GAUSS2D_SMALL = "state = gaussian\ncenter = [5.0, 5.0]\nwidth = 1.0\nwavevector = [1.0, 0.5]\n"


def test_traced_driven_simulate_counts_each_layer(ham, tmp_path):
    """A driven 2D `simulate` under perfbench/tracing.py: the one dynamic
    coefficient goes through `evaluate_on` once for the step bound and once
    per RK4 stage, the static ones and the table entries as before, and the
    one-axis derivative transforms are counted."""
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(spans), "--",
         "simulate", "--hermitize", ham("driven.ham", DRIVEN_2D), "--state", ham("g.st", GAUSS2D_SMALL),
         "--grid", "16", "--domain", "10", "--dt", "1e-3", "--steps", "8", "--stride", "4",
         "--trajectories", "20", "--out", str(tmp_path / "run")],
        env=_subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(spans.read_text())["counts"]
    H = require_hermitian(hermitize(load_hamiltonian(DRIVEN_2D)))
    dynamic = [n for n, coef in H.terms.items() if contains_time(coef)]
    assert len(dynamic) == 1
    entries = sum(len(axis) for axis in derive_current_table(H).axes)
    steps = counts["solver.rk4_steps"]
    snapshots = counts["currents.eval_current.calls"]
    assert (steps, snapshots) == (8, 3)
    assert counts["operators.apply.calls"] == 4 * steps
    assert counts["expr.evaluate_on.calls"] == len(H.terms) + entries * snapshots + 4 * steps
    assert counts["grids.fft_calls"] > 0


@pytest.mark.parametrize("command", ["simulate", "derive", "compare"])
def test_an_output_that_cannot_be_written_is_a_usage_error(command, ham, tmp_path, capsys, monkeypatch):
    """simulate --out naming a file, and derive/compare --out in a missing
    directory; simulate refuses before it evolves."""
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve started before the output directory was checked")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    taken = tmp_path / "taken"
    taken.write_text("")
    target = taken if command == "simulate" else tmp_path / "missing" / "x.json"
    state = [] if command == "derive" else ["--state", ham("gauss.st", GAUSS), "--grid", "64"]
    assert main([command, ham("free.ham", FREE), *state, "--out", str(target)]) == 2
    assert f"error: cannot write {target}: " in capsys.readouterr().err


SMALL_1D_RUN = ["--grid", "64", "--domain", "40", "--dt", "1e-3", "--steps", "40", "--stride", "10"]


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def test_forked_snapshot_writer_matches_the_inline_path(ham, tmp_path, capsys, monkeypatch):
    """Snapshots written by the forked writer are the files, stdout and exit
    code that writing them in this process gives."""
    out = tmp_path / "run"
    argv = ["simulate", ham("std2d.ham", STD2D), "--state", ham("g.st", GAUSS2D), "--grid", "16",
            "--domain", "20", "--dt", "1e-3", "--steps", "12", "--stride", "4", "--trajectories", "10",
            "--out", str(out)]
    assert main(argv) == 0
    forked, forked_stdout = _files(out), capsys.readouterr().out
    for path in out.iterdir():
        path.unlink()
    monkeypatch.delattr(os, "fork")
    assert main(argv) == 0
    assert capsys.readouterr().out == forked_stdout
    assert _files(out) == forked
    assert sum(name.suffix == ".csv" for name in forked) == 5  # 4 snapshots and trajectories.csv


def test_norm_drift_mid_run_keeps_the_snapshots_it_reached(ham, tmp_path, capsys):
    """RK4 at dt = 0.25 on 16 points drifts past the limit at the eighth
    snapshot: the seven before it are written, summary.json is not.  The
    drive, 1e-30 cos(t), is far below the rounding of any value here, but its
    explicit t keeps the run on RK4."""
    out = tmp_path / "run"
    driven = FREE + 'term [0] = "1e-30*cos(t)"\n'
    argv = ["simulate", ham("free.ham", driven), "--state", ham("gauss.st", GAUSS), "--grid", "16",
            "--domain", "40", "--dt", "0.25", "--steps", "40", "--stride", "2", "--out", str(out)]
    assert main(argv) == 3
    assert "norm drift 1.094e-06 at t=3.5 exceeds 1e-06" in capsys.readouterr().err
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(f"snapshot_{k:04d}.{ext}" for k in range(7) for ext in ("json", "csv"))
    assert json.loads((out / "snapshot_0006.json").read_text())["time"] == 3.0


@pytest.mark.parametrize("inline", [False, True], ids=["forked", "inline"])
def test_a_snapshot_that_cannot_be_written_is_a_usage_error(inline, ham, tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    (out / "snapshot_0002.json").mkdir(parents=True)
    if inline:
        monkeypatch.delattr(os, "fork")
    argv = ["simulate", ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), *SMALL_1D_RUN,
            "--trajectories", "10", "--out", str(out)]
    assert main(argv) == 2
    assert f"error: cannot write {out / 'snapshot_0002.json'}: " in capsys.readouterr().err
    assert (out / "snapshot_0001.csv").exists() and not (out / "summary.json").exists()


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="waits on the forked writer with os.waitid")
@pytest.mark.parametrize("failing", [0, 4], ids=["seen-by-send", "seen-after-evolve"])
def test_a_failed_snapshot_write_stops_the_run_before_its_other_outputs(
        failing, ham, tmp_path, capsys, monkeypatch):
    """The parent stops at its next look at the writer's error pipe: the next
    send, or the look after evolve for the last snapshot.  Once the failing
    snapshot is sent, the patched evolve waits, without reaping it, until the
    writer has exited, so the outcome does not depend on timing."""
    out = tmp_path / "run"
    (out / f"snapshot_{failing:04d}.json").mkdir(parents=True)
    evolve = cli.evolve

    def waiting(H, psi0, spec, on_snapshot):
        sent = []

        def send(state):
            on_snapshot(state)
            sent.append(state)
            if len(sent) == failing + 1:
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)

        return evolve(H, psi0, spec, on_snapshot=send)

    monkeypatch.setattr(cli, "evolve", waiting)
    argv = ["simulate", ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), *SMALL_1D_RUN,
            "--trajectories", "10", "--out", str(out)]
    assert main(argv) == 2
    assert f"error: cannot write {out / f'snapshot_{failing:04d}.json'}: " in capsys.readouterr().err
    assert not any((out / name).exists() for name in ("density.svg", "trajectories.csv", "summary.json"))


def test_an_interrupted_simulate_reaps_its_writer(ham, tmp_path, monkeypatch):
    def interrupted(snapshots):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "norm_drift", interrupted)
    out = tmp_path / "run"
    argv = ["simulate", ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), *SMALL_1D_RUN,
            "--out", str(out)]
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert (out / "snapshot_0004.json").exists() and not (out / "summary.json").exists()


def test_traced_simulate_reports_once(ham, tmp_path):
    """The forked writer leaves through os._exit, so under perfbench/tracing.py
    only the parent prints its lines and writes the spans file."""
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(spans), "--",
         "simulate", ham("free.ham", FREE), "--state", ham("gauss.st", GAUSS), *SMALL_1D_RUN,
         "--trajectories", "10", "--out", str(tmp_path / "run")],
        env=_subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("wrote ") == 1 and done.stderr == ""
    assert json.loads(spans.read_text())["argv"][0] == "simulate"
