"""CLI tests: subcommands, exit codes, output formats, and reproducibility."""

import codecs
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sspkit
from sspkit.cli import build_parser, main
from sspkit.domains import gen_chain, gen_retry, gen_triangle_tireworld
from sspkit.ppddl import parse_domain, parse_problem


@pytest.fixture()
def triangle_files(tmp_path):
    domain_text, problem_text = gen_triangle_tireworld(1)
    domain = tmp_path / "domain.ppddl"
    problem = tmp_path / "problem.ppddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    return str(domain), str(problem)


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "sspkit.cli", *args],
                          capture_output=True, text=True)
    return proc


# a help text that formats a default the parser does not hold crashes, and
# one that prints "(default None)" promises a default the option lacks
@pytest.mark.parametrize("command", [
    ["plan"], ["simulate"], ["learn-det"], ["bench"], ["detplan", "solve"],
    ["oracle", "vi"], ["oracle", "enumerate"], ["gen"],
], ids=lambda command: "-".join(command))
def test_help_exit_0(command):
    proc = run_cli([*command, "--help"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"usage: sspkit {' '.join(command)} ")
    assert "(default None)" not in proc.stdout


@pytest.mark.parametrize("args,stem", [
    (["triangle", "--n", "2"], "triangle-2"),
    (["chain", "--length", "3"], "chain-3"),
    (["trap", "--walk-length", "5"], "trap-5"),
    (["retry"], "retry"),
], ids=["triangle", "chain", "trap", "retry"])
def test_gen_writes_parseable_files(tmp_path, capsys, args, stem):
    code = main(["gen", *args, "--out-dir", str(tmp_path)])
    assert code == 0
    domain = tmp_path / f"{stem}-domain.ppddl"
    problem = tmp_path / f"{stem}-problem.ppddl"
    assert capsys.readouterr().out == f"{domain}\n{problem}\n"
    schema = parse_domain(domain.read_text())
    parse_problem(problem.read_text(), schema)


@pytest.mark.parametrize("k,v_initial,subplanner_calls,policy_size", [
    (0, 10.0, 1, 10), (1, 8.25, 3, 24), (2, 7.25, 2, 36)],
    ids=["k0", "k1", "k2"])
def test_plan_report(tmp_path, triangle_files, capsys, k, v_initial,
                     subplanner_calls, policy_size):
    domain, problem = triangle_files
    out = tmp_path / "report.json"
    code = main(["plan", "--domain", domain, "--problem", problem,
                 "--det-index", "0", "--k", str(k), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["converged"] is True
    assert report["v_initial"] == v_initial
    assert report["subplanner_calls"] == subplanner_calls
    assert report["policy_size"] == policy_size
    # one sweep expands the whole graph, the next one finds it converged
    assert report["sweeps"] == 2
    assert report["residual_trace"] == [None, 0.0]
    assert "wall_time" not in report


def test_plan_timings_add_only_wall_time(tmp_path, triangle_files):
    domain, problem = triangle_files
    reports = []
    for options in ([], ["--timings"]):
        out = tmp_path / "report.json"
        assert main(["plan", "--domain", domain, "--problem", problem,
                     "--det-mlo", "--k", "1", "--out", str(out), *options]) == 0
        reports.append(json.loads(out.read_text()))
    untimed, timed = reports
    assert timed.pop("wall_time") >= 0.0
    assert timed == untimed


def test_plan_report_counts_subplanner_timeouts(tmp_path, triangle_files):
    # at k = 0 the root is at the bound, and one expansion exhausts the
    # sub-planner's budget: a failure that is a timeout, valued at the cap
    domain, problem = triangle_files
    out = tmp_path / "report.json"
    assert main(["plan", "--domain", domain, "--problem", problem,
                 "--det-index", "0", "--subplanner-budget", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["subplanner_calls"], report["subplanner_failures"],
            report["subplanner_timeouts"]) == (1, 1, 1)
    assert report["converged"] is True and report["v_initial"] == 500.0


def test_plan_missing_file_exit_2(capsys):
    assert main(["plan", "--domain", "/nonexistent.ppddl",
                 "--problem", "/nonexistent2.ppddl", "--det-mlo"]) == 2


# each of these is a directory or file in the way of a read or write
@pytest.mark.parametrize("command", [
    ["plan", "--domain", "{dir}", "--problem", "{problem}", "--det-mlo"],
    ["plan", "--domain", "{domain}", "--problem", "{problem}",
     "--det-file", "{dir}"],
    ["plan", "--domain", "{domain}", "--problem", "{problem}", "--det-mlo",
     "--out", "{dir}"],
    ["simulate", "--domain", "{domain}", "--problem", "{problem}",
     "--det-mlo", "--rounds", "1", "--out", "{dir}/sim.json",
     "--csv", "{dir}"],
    ["gen", "triangle", "--out-dir", "{problem}"],
], ids=["domain-dir", "det-file-dir", "out-dir", "csv-dir", "gen-out-file"])
def test_file_system_error_exit_2(tmp_path, triangle_files, capsys, command):
    domain, problem = triangle_files
    argv = [arg.format(dir=tmp_path, domain=domain, problem=problem)
            for arg in command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("option,value", [
    ("--epsilon", "nan"), ("--epsilon", "inf"), ("--m-cap", "nan"),
    ("--m-cap", "inf"), ("--time-budget", "nan"), ("--time-budget", "inf"),
])
def test_non_finite_numeric_option_exit_2(triangle_files, capsys, option,
                                          value):
    domain, problem = triangle_files
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["simulate", "--domain", domain,
                                   "--problem", problem, "--det-mlo",
                                   option, value])
    assert exc.value.code == 2
    assert "must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command,option", [
    (["simulate", "--problem", "{problem}", "--det-mlo"], "--rounds"),
    (["simulate", "--problem", "{problem}", "--det-mlo"], "--max-actions"),
    (["simulate", "--problem", "{problem}", "--det-mlo"],
     "--subplanner-budget"),
    (["learn-det", "--training-problem", "{problem}"], "--workers"),
    (["plan", "--problem", "{problem}", "--det-mlo"], "--k"),
    (["plan", "--problem", "{problem}"], "--det-index"),
])
def test_zero_count_option_exit_2(triangle_files, capsys, command, option):
    domain, problem = triangle_files
    # --k and --det-index may be 0, so their first bad value is -1
    value, bound = (("-1", ">= 0") if option in ("--k", "--det-index")
                    else ("0", "> 0"))
    argv = [command[0], "--domain", domain,
            *(arg.format(problem=problem) for arg in command[1:]), option,
            value]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"argument {option}: {value} must be {bound}" in \
        capsys.readouterr().err


# the message names the sources the subcommand offers, and only those
@pytest.mark.parametrize("command,offered", [
    (["simulate"], "(--det-file, --det-mlo, --det-index or --det-learn)"),
    (["oracle", "vi", "--reduced"], "(--det-file, --det-mlo or --det-index)"),
], ids=["simulate", "oracle-reduced"])
def test_missing_det_source_exit_2(triangle_files, capsys, command, offered):
    domain, problem = triangle_files
    assert main([*command, "--domain", domain, "--problem", problem]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.rstrip().endswith(offered)


def test_negative_k_rejected_before_work(triangle_files):
    domain, problem = triangle_files
    proc = run_cli(["plan", "--domain", domain, "--problem", problem,
                    "--det-mlo", "--k", "-1"])
    assert proc.returncode == 2


def test_parse_error_has_position(tmp_path):
    bad = tmp_path / "bad.ppddl"
    bad.write_text("(define (domain x)\n  (:predicates (p)\n")
    proc = run_cli(["plan", "--domain", str(bad), "--problem", str(bad),
                    "--det-mlo"])
    assert proc.returncode == 2
    assert f"{bad}:" in proc.stderr


def test_malformed_equality_is_a_parse_error_not_a_traceback(tmp_path):
    bad = tmp_path / "bad.ppddl"
    bad.write_text("(define (domain d) (:predicates (p ?x))\n"
                   "  (:action a :parameters (?x) :precondition (not (= ?x))"
                   " :effect (p ?x)))\n")
    proc = run_cli(["plan", "--domain", str(bad), "--problem", str(bad),
                    "--det-mlo"])
    assert proc.returncode == 2
    assert proc.stderr == f"error: {bad}:2:51: malformed (= ...)\n"


def test_external_planner_error_exit_4(triangle_files, capsys):
    domain, problem = triangle_files
    failing = shlex.join([sys.executable, "-c", "raise SystemExit(1)"])
    code = main(["detplan", "solve", "--domain", domain, "--problem", problem,
                 "--det-mlo", "--external", failing])
    assert code == 4
    assert "external planner exited with 1" in capsys.readouterr().err


def test_external_planner_output_not_utf8_exit_4(triangle_files, capsys):
    domain, problem = triangle_files
    planner = shlex.join([sys.executable, "-c", "import sys; "
                          "sys.stdout.buffer.write(b'\\xff\\xfe(step)\\n')"])
    code = main(["detplan", "solve", "--domain", domain, "--problem", problem,
                 "--det-mlo", "--external", planner])
    assert code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: external planner output is not UTF-8 at byte 0\n"


# outside files are decoded as UTF-8 whatever the locale; a byte that is
# not UTF-8, here in a comment, is a parse error at its line and column,
# which counts characters (the two bytes c3 a9 are one)
@pytest.mark.parametrize("which", ["problem", "det-file"])
def test_file_not_utf8_is_a_positioned_parse_error(tmp_path, triangle_files,
                                                   capsys, which):
    domain, problem = triangle_files
    bad = tmp_path / "bad"
    if which == "problem":
        bad.write_bytes(b"\n  ; caf\xc3\xa9 \xff\n" + Path(problem).read_bytes())
        args, where = ["--problem", str(bad), "--det-mlo"], "2:10"
    else:
        bad.write_bytes(b"# caf\xc3\xa9 \xff\n")
        args, where = ["--problem", problem, "--det-file", str(bad)], "1:8"
    code = main(["plan", "--domain", domain, *args])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: {bad}:{where}: byte 0xff is not UTF-8\n")


# a UTF-8 byte-order mark opening an input file is skipped, so a domain,
# problem or determinization file gives the same plan with or without one
@pytest.mark.parametrize("marked", ["domain.ppddl", "problem.ppddl",
                                    "det.txt"])
def test_byte_order_mark_is_skipped(tmp_path, monkeypatch, capsys, marked):
    domain_text, problem_text = gen_chain(2)
    files = {"domain.ppddl": domain_text, "problem.ppddl": problem_text,
             "det.txt": "step/0 -> 0\n"}
    outputs = []
    for mark in (b"", codecs.BOM_UTF8):
        run = tmp_path / ("bom" if mark else "plain")
        run.mkdir()
        for name, text in files.items():
            prefix = mark if name == marked else b""
            (run / name).write_bytes(prefix + text.encode("utf-8"))
        monkeypatch.chdir(run)
        code = main(["plan", "--domain", "domain.ppddl", "--problem",
                     "problem.ppddl", "--det-file", "det.txt"])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


# a determinization entry is name/clause -> outcome in ASCII digits; any
# other entry is a parse error at the entry's file, line and column
@pytest.mark.parametrize("entry", [
    "move-car/0 => 1", "move-car/0 -> 1_0", "move-car/+0 -> 1",
    "move-car/0 -> -0", "move-car/\u0660 -> \u0661", "move-car -> 1",
], ids=["arrow", "underscore", "plus", "minus", "arabic-indic", "no-clause"])
def test_bad_det_file_entry_is_a_positioned_parse_error(
        tmp_path, triangle_files, capsys, entry):
    domain, problem = triangle_files
    det = tmp_path / "bad.det"
    det.write_text(f"# one entry per line\n  {entry}  # note\n",
                   encoding="utf-8")
    code = main(["plan", "--domain", domain, "--problem", problem,
                 "--det-file", str(det)])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: {det}:2:3: bad determinization entry {entry!r}\n")


@pytest.mark.parametrize("entry", [
    "move-car/" + "1" * 5_000 + " -> 0", "move-car/0 -> " + "1" * 5_000,
], ids=["clause", "outcome"])
def test_det_file_number_past_the_digit_limit_is_positioned(
        tmp_path, triangle_files, capsys, int_digit_limit, entry):
    domain, problem = triangle_files
    det = tmp_path / "long.det"
    det.write_text(f"# one entry per line\n  {entry}\n", encoding="utf-8")
    code = main(["plan", "--domain", domain, "--problem", problem,
                 "--det-file", str(det)])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: {det}:2:3: determinization entry has a number with too "
            f"many digits\n")


def test_external_planner_rejects_optimal(triangle_files, capsys, tmp_path):
    # the external planner's search is its own, so --optimal would be ignored
    domain, problem = triangle_files
    ran = tmp_path / "ran"
    planner = shlex.join([sys.executable, "-c", f"open({str(ran)!r}, 'w')"])
    code = main(["detplan", "solve", "--domain", domain, "--problem", problem,
                 "--det-mlo", "--external", planner, "--optimal"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --external does not take --optimal\n"
    assert not ran.exists()  # rejected before the planner runs


@pytest.mark.parametrize("command,message", [
    ("", "the command is blank"),
    ("  ", "the command is blank"),
    ('planner "x', "No closing quotation"),
], ids=["empty", "spaces", "unclosed-quote"])
def test_external_planner_blank_command_exit_2(tmp_path, capsys, command,
                                               message):
    # rejected while the options are read, before the (missing) domain is
    # opened or anything is run
    missing = str(tmp_path / "missing.ppddl")
    with pytest.raises(SystemExit) as exc:
        main(["detplan", "solve", "--domain", missing, "--problem", missing,
              "--det-mlo", "--optimal", "--external", command])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument --external: {message}\n")


def test_unsupported_feature_exit_2(tmp_path):
    bad = tmp_path / "bad.ppddl"
    bad.write_text("""
    (define (domain x)
      (:predicates (p) (q))
      (:action a :parameters () :precondition (p)
        :effect (when (p) (q))))
    """)
    proc = run_cli(["plan", "--domain", str(bad), "--problem", str(bad),
                    "--det-mlo"])
    assert proc.returncode == 2
    assert "when" in proc.stderr


@pytest.mark.parametrize("text, message", [
    ("(define (domain d) " + "(" * 2_000 + ")" * 2_000 + ")",
     "bad.ppddl:1:119: form nested deeper than 100 levels"),
    ("(define (domain d) (:predicates (p))\n  (:action a :parameters () "
     ":effect (probabilistic 1/0 (p))))",
     "bad.ppddl:2:52: expected probability, got '1/0'"),
], ids=["deep-nesting", "zero-denominator"])
def test_malformed_domain_exit_2_without_traceback(tmp_path, text, message):
    bad = tmp_path / "bad.ppddl"
    bad.write_text(text)
    proc = run_cli(["plan", "--domain", str(bad), "--problem", str(bad),
                    "--det-mlo"])
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_grounding_blowup_exit_3(tmp_path):
    domain = tmp_path / "big-domain.ppddl"
    problem = tmp_path / "big-problem.ppddl"
    domain.write_text("""
    (define (domain big)
      (:predicates (p ?a ?b ?c ?d ?e) (g))
      (:action a
        :parameters (?a ?b ?c ?d ?e)
        :precondition (and)
        :effect (p ?a ?b ?c ?d ?e)))
    """)
    objects = " ".join(f"o{i}" for i in range(20))
    problem.write_text(f"(define (problem p) (:domain big) "
                       f"(:objects {objects}) (:init) (:goal (g)))")
    proc = run_cli(["plan", "--domain", str(domain), "--problem",
                    str(problem), "--det-mlo"])
    assert proc.returncode == 3


def test_joint_outcome_blowup_exit_3(tmp_path, capsys):
    # 2^21 joint outcomes of one nullary action, over the cap of 10^6
    flips = " ".join(f"(probabilistic 1/2 (q{i}))" for i in range(21))
    domain = tmp_path / "flips-domain.ppddl"
    problem = tmp_path / "flips-problem.ppddl"
    domain.write_text(f"""
    (define (domain flips)
      (:requirements :probabilistic-effects)
      (:predicates (g) {" ".join(f"(q{i})" for i in range(21))})
      (:action flip :parameters () :precondition (and) :effect (and {flips})))
    """)
    problem.write_text("(define (problem p) (:domain flips) (:init) (:goal (g)))")
    code = main(["plan", "--domain", str(domain), "--problem", str(problem),
                 "--det-mlo"])
    assert code == 3
    assert capsys.readouterr() == ("", "error: the ground actions have 2097152 "
                                       "joint outcomes, over the cap of 1000000\n")


@pytest.mark.parametrize("source", ["file", "mlo", "index", "learn"])
def test_plan_config_echo(tmp_path, triangle_files, capsys, source):
    domain, problem = triangle_files
    det = tmp_path / "det.txt"
    det.write_text("move-car/0 -> 0\nloadtire/0 -> 0\nchangetire/0 -> 0\n")
    source_args, det_value = {
        "file": (["--det-file", str(det)], str(det)),
        "mlo": (["--det-mlo"], None),
        "index": (["--det-index", "1"], 1),
        "learn": (["--det-learn", problem], problem),
    }[source]
    assert main(["plan", "--domain", domain, "--problem", problem,
                 *source_args, "--k", "1", "--epsilon", "0.01",
                 "--m-cap", "200", "--seed", "5"]) == 0
    expected = {"det_source": source, "k": 1, "epsilon": 0.01,
                "m_cap": 200.0, "seed": 5}
    if det_value is not None:
        expected["det_value"] = det_value
    config = json.loads(capsys.readouterr().out)["config"]
    assert list(config.items()) == list(expected.items())  # order too


def test_simulate_and_bench_config_echo(tmp_path, triangle_files):
    domain, problem = triangle_files
    out = tmp_path / "sim.json"
    assert main(["simulate", "--domain", domain, "--problem", problem,
                 "--det-index", "0", "--rounds", "3", "--max-actions", "40",
                 "--seed", "6", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    expected = {"det_source": "index", "k": 0, "epsilon": 0.001,
                "m_cap": 500.0, "seed": 6, "det_value": 0, "rounds": 3,
                "max_actions": 40}
    assert list(config.items()) == list(expected.items())  # order too

    out = tmp_path / "bench.json"
    assert main(["bench", "--domain", domain, "--problems", problem,
                 "--det-mlo", "--k", "1", "--rounds", "2", "--seed", "0",
                 "--json", str(out),
                 "--csv", str(tmp_path / "bench.csv")]) == 0
    config = json.loads(out.read_text())["config"]
    expected = {"det_source": "mlo", "k": 1, "epsilon": 0.001,
                "m_cap": 500.0, "seed": 0, "rounds": 2, "max_actions": 2500}
    assert list(config.items()) == list(expected.items())  # order too


def test_simulate_outputs_and_format_equivalence(tmp_path, triangle_files):
    domain, problem = triangle_files
    out = tmp_path / "sim.json"
    csv = tmp_path / "sim.csv"
    code = main(["simulate", "--domain", domain, "--problem", problem,
                 "--det-index", "0", "--k", "0", "--rounds", "8",
                 "--seed", "13", "--out", str(out), "--csv", str(csv)])
    assert code == 0
    payload = json.loads(out.read_text())
    lines = csv.read_text().splitlines()
    assert lines[0] == "# schema_version: 1"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == len(payload["rounds"]) == 8
    for row, rep in zip(rows, payload["rounds"]):
        assert row[1] == rep["outcome"]
        assert int(row[2]) == rep["actions_taken"]
        assert float(row[3]) == rep["accumulated_cost"]
        assert int(row[4]) == rep["replans"]
    assert payload["stats"]["rounds"] == 8


def test_simulate_timings_add_wall_time_to_rounds_and_csv(tmp_path,
                                                         triangle_files):
    domain, problem = triangle_files
    out = tmp_path / "sim.json"
    csv = tmp_path / "sim.csv"
    assert main(["simulate", "--domain", domain, "--problem", problem,
                 "--det-index", "0", "--k", "0", "--rounds", "3", "--seed",
                 "13", "--timings", "--out", str(out), "--csv", str(csv)]) == 0
    rounds = json.loads(out.read_text())["rounds"]
    header, *rows = csv.read_text().splitlines()[1:]
    assert header == ("round,outcome,actions_taken,accumulated_cost,replans,"
                      "seed,wall_time")
    assert len(rows) == len(rounds) == 3
    for i, (row, rep) in enumerate(zip(rows, rounds)):
        assert list(rep) == header.split(",")[1:]
        assert row.split(",") == [str(i), *map(str, rep.values())]


def test_byte_identical_reruns(tmp_path, triangle_files):
    domain, problem = triangle_files
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        proc = run_cli(["simulate", "--domain", domain, "--problem", problem,
                        "--det-mlo", "--k", "1", "--rounds", "6",
                        "--seed", "99", "--out", str(out), "--csv", str(csv)])
        assert proc.returncode == 0
        outputs.append(out.read_bytes() + csv.read_bytes())
    assert outputs[0] == outputs[1]


def test_learn_det_writes_determinization(tmp_path, triangle_files):
    domain, problem = triangle_files
    det = tmp_path / "det.txt"
    csv = tmp_path / "rank.csv"
    code = main(["learn-det", "--domain", domain, "--training-problem",
                 problem, "--k", "0", "--rounds", "20", "--seed", "0",
                 "--out", str(det), "--report-csv", str(csv)])
    assert code == 0
    assert "move-car/0 -> 0" in det.read_text()
    lines = csv.read_text().splitlines()
    assert lines[1].startswith("rank,index,determinization")
    assert len(lines) == 4  # comment + header + two candidates


def test_learned_det_file_feeds_simulate(tmp_path, triangle_files):
    domain, problem = triangle_files
    det = tmp_path / "det.txt"
    assert main(["learn-det", "--domain", domain, "--training-problem",
                 problem, "--rounds", "20", "--seed", "0", "--out", str(det),
                 "--report-csv", str(tmp_path / "rank.csv")]) == 0
    out = tmp_path / "sim.json"
    assert main(["simulate", "--domain", domain, "--problem", problem,
                 "--det-file", str(det), "--k", "0", "--rounds", "10",
                 "--seed", "9", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["stats"]["success_probability"] == 1.0


def test_simulate_with_det_learn_flag(tmp_path, triangle_files):
    domain, problem = triangle_files
    out = tmp_path / "sim.json"
    assert main(["simulate", "--domain", domain, "--problem", problem,
                 "--det-learn", problem, "--k", "0", "--rounds", "10",
                 "--seed", "9", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["det_source"] == "learn"
    assert payload["stats"]["success_probability"] == 1.0


@pytest.mark.parametrize("command,options,max_actions", [
    ("plan", [], 2500),
    ("simulate", ["--max-actions", "30", "--time-budget", "600"], 30),
    ("bench", ["--max-actions", "30", "--time-budget", "600"], 30),
])
def test_det_learn_scores_candidates_under_the_command_settings(
        tmp_path, triangle_files, monkeypatch, command, options,
        max_actions):
    from sspkit import learner
    from sspkit.solver import SolverConfig

    domain, problem = triangle_files
    settings = []
    evaluate = learner.monte_carlo_evaluate

    def recording(*args, **kwargs):
        cfg = kwargs.get("cfg") or SolverConfig()
        settings.append((cfg.m_cap, cfg.subplanner_budget,
                         kwargs["max_actions"], kwargs["time_budget"]))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(learner, "monte_carlo_evaluate", recording)
    bench = command == "bench"
    assert main([command, "--domain", domain,
                 "--problems" if bench else "--problem", problem,
                 "--det-learn", problem, "--m-cap", "50",
                 "--subplanner-budget", "7", *options,
                 "--csv" if bench else "--out", str(tmp_path / "out")]) == 0
    # --time-budget bounds the command's evaluation, not the learning
    assert settings and set(settings) == {(50.0, 7, max_actions, None)}


def test_bench_csv_json_equal_numbers(tmp_path):
    domain_text, _ = gen_triangle_tireworld(1)
    domain = tmp_path / "d.ppddl"
    domain.write_text(domain_text)
    problems = []
    for n in (1, 2):
        _, problem_text = gen_triangle_tireworld(n)
        path = tmp_path / f"p{n}.ppddl"
        path.write_text(problem_text)
        problems.append(str(path))
    csv = tmp_path / "bench.csv"
    out_json = tmp_path / "bench.json"
    code = main(["bench", "--domain", str(domain), "--problems", *problems,
                 "--det-index", "0", "--k", "0", "--rounds", "5",
                 "--seed", "2", "--csv", str(csv), "--json", str(out_json)])
    assert code == 0
    payload = json.loads(out_json.read_text())
    rows = csv.read_text().splitlines()[2:]
    assert len(rows) == len(payload["results"]) == 2
    for row, res in zip(rows, payload["results"]):
        name, solved, total, p, cost = row.split(",")
        assert name == res["problem"]
        assert int(solved) == res["rounds_solved"]
        assert int(total) == res["rounds_total"]
        assert float(p) == res["success_probability"]
        assert float(cost) == res["expected_cost"]


def test_bench_timings_add_wall_time_to_json_and_csv(tmp_path, triangle_files):
    domain, problem = triangle_files
    payloads, csvs = [], []
    for tag, options in (("untimed", []), ("timed", ["--timings"])):
        csv, out_json = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        assert main(["bench", "--domain", domain, "--problems", problem,
                     problem, "--det-mlo", "--rounds", "3", "--csv", str(csv),
                     "--json", str(out_json), *options]) == 0
        payloads.append(json.loads(out_json.read_text()))
        csvs.append(csv.read_text().splitlines())
    (untimed, timed), (untimed_csv, timed_csv) = payloads, csvs
    wall_times = [row.pop("wall_time") for row in timed["results"]]
    assert timed == untimed
    assert all(t >= 0.0 for t in wall_times)
    assert timed_csv[:2] == [untimed_csv[0], untimed_csv[1] + ",wall_time"]
    assert timed_csv[2:] == [f"{row},{t!r}"
                             for row, t in zip(untimed_csv[2:], wall_times)]


def test_bench_row_of_a_problem_whose_solve_hits_the_sweep_bound(
        tmp_path, triangle_files, monkeypatch):
    from sspkit import solver

    domain, problem = triangle_files
    monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
    csv = tmp_path / "bench.csv"
    out_json = tmp_path / "bench.json"
    assert main(["bench", "--domain", domain, "--problems", problem,
                 "--det-mlo", "--k", "1", "--rounds", "3", "--m-cap", "200",
                 "--csv", str(csv), "--json", str(out_json)]) == 0
    row, = json.loads(out_json.read_text())["results"]
    assert row["error"] == "exceeded 1 update sweeps"
    assert (row["rounds_solved"], row["rounds_total"],
            row["success_probability"], row["expected_cost"]) == \
        (0, 3, 0.0, 200.0)
    assert csv.read_text().splitlines()[2:] == [
        f"{row['problem']},0,3,0.0,200.0"]


def test_bench_empty_problem_list(tmp_path):
    domain_text, _ = gen_triangle_tireworld(1)
    domain = tmp_path / "d.ppddl"
    domain.write_text(domain_text)
    csv = tmp_path / "bench.csv"
    code = main(["bench", "--domain", str(domain), "--problems",
                 "--det-mlo", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 2  # schema comment + header, no rows


@pytest.mark.parametrize("source", [
    ["--det-file", "missing.det"],
    ["--det-index", "99"],
    ["--det-learn", "missing.ppddl"],
], ids=["file", "index", "learn"])
def test_bench_bad_det_source_exit_2_with_or_without_problems(
        tmp_path, monkeypatch, triangle_files, capsys, source):
    """``bench`` resolves its determinization before any problem: a bad
    source exits 2 with no CSV written, even when no problem is given."""
    domain, problem = triangle_files
    monkeypatch.chdir(tmp_path)  # where the missing files are missing
    csv = tmp_path / "bench.csv"
    for problems in ([], [problem]):
        assert main(["bench", "--domain", domain, "--problems", *problems,
                     *source, "--csv", str(csv)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not csv.exists()


def test_csv_cells_holding_a_comma_read_back_whole(tmp_path):
    """Names may hold a comma: every row of both CSVs is as wide as its
    header, and the name cells read back whole."""
    domain_text, problem_text = gen_retry()
    domain, problem = tmp_path / "d.ppddl", tmp_path / "p.ppddl"
    domain.write_text(domain_text.replace("attempt", "go,fast"))
    problem.write_text(problem_text.replace("retry-once", "p,1"))
    rank, bench = tmp_path / "rank.csv", tmp_path / "bench.csv"
    assert main(["learn-det", "--domain", str(domain), "--training-problem",
                 str(problem), "--rounds", "2", "--report-csv", str(rank)]) == 0
    assert main(["bench", "--domain", str(domain), "--problems", str(problem),
                 "--det-mlo", "--rounds", "2", "--csv", str(bench)]) == 0
    tables = []
    for path in (rank, bench):
        schema_line, *lines = path.read_text().splitlines()
        assert schema_line == "# schema_version: 1"
        header, *rows = csv.reader(lines)
        assert rows and all(len(row) == len(header) for row in rows)
        tables.append([dict(zip(header, row)) for row in rows])
    ranked, benched = tables
    assert sorted(row["determinization"] for row in ranked) == [
        "go,fast/0=0", "go,fast/0=1"]
    assert [row["problem"] for row in benched] == ["p,1"]


def test_seed_defaults_from_environment(tmp_path, triangle_files):
    domain, problem = triangle_files
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    proc = subprocess.run(
        [sys.executable, "-m", "sspkit.cli", "simulate", "--domain", domain,
         "--problem", problem, "--det-index", "0", "--rounds", "4",
         "--out", str(out_env)],
        capture_output=True, text=True,
        # a stripped environment, plus the import path of the sspkit this
        # process imported, so the child runs the same (possibly
        # uninstalled) package
        env={"PATH": "/usr/bin:/bin", "SSPKIT_SEED": "42",
             "PYTHONPATH": str(Path(sspkit.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    main(["simulate", "--domain", domain, "--problem", problem,
          "--det-index", "0", "--rounds", "4", "--seed", "42",
          "--out", str(out_flag)])
    assert out_env.read_bytes() == out_flag.read_bytes()


# one case per --seed declaration: the shared options and learn-det's own;
# each command line is otherwise valid, ending in its problem-file flag
@pytest.mark.parametrize("command", [
    ["plan", "--det-mlo", "--problem"],
    ["learn-det", "--training-problem"],
])
def test_malformed_env_seed_exit_2(monkeypatch, triangle_files, command):
    domain, problem = triangle_files
    monkeypatch.setenv("SSPKIT_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main([*command, problem, "--domain", domain])
    assert exc.value.code == 2


def test_explicit_seed_overrides_malformed_env_seed(monkeypatch, tmp_path,
                                                    triangle_files):
    domain, problem = triangle_files
    monkeypatch.setenv("SSPKIT_SEED", "abc")
    out = tmp_path / "sim.json"
    code = main(["simulate", "--domain", domain, "--problem", problem,
                 "--det-index", "0", "--rounds", "2", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 3


def test_bench_learned_delta_beats_alternative(tmp_path):
    # flat determinization solves every round; the alternative loses rounds
    # on the size-2 instance
    domain_text, _ = gen_triangle_tireworld(1)
    domain = tmp_path / "d.ppddl"
    domain.write_text(domain_text)
    _, problem2_text = gen_triangle_tireworld(2)
    problem2 = tmp_path / "p2.ppddl"
    problem2.write_text(problem2_text)
    results = {}
    for idx in ("0", "1"):
        out = tmp_path / f"bench{idx}.json"
        code = main(["bench", "--domain", str(domain), "--problems",
                     str(problem2), "--det-index", idx, "--k", "0",
                     "--rounds", "20", "--seed", "7", "--json", str(out),
                     "--csv", str(tmp_path / f"bench{idx}.csv")])
        assert code == 0
        results[idx] = json.loads(out.read_text())["results"][0]
    assert results["0"]["rounds_solved"] == 20
    assert results["1"]["rounds_solved"] < 20


def test_detplan_solve_plan_and_failure(tmp_path):
    domain_text, problem_text = gen_chain(3)
    domain = tmp_path / "d.ppddl"
    problem = tmp_path / "p.ppddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    out = tmp_path / "plan.txt"
    code = main(["detplan", "solve", "--domain", str(domain), "--problem",
                 str(problem), "--det-index", "0", "--optimal",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "; status = plan"
    assert lines[1] == "; cost = 3.0"
    assert lines[2:] == ["(step p0 p1)", "(step p1 p2)", "(step p2 p3)"]

    # unsolvable: the retry domain under the null determinization
    r_domain, r_problem = gen_retry()
    rd = tmp_path / "rd.ppddl"
    rp = tmp_path / "rp.ppddl"
    rd.write_text(r_domain)
    rp.write_text(r_problem)
    proc = run_cli(["detplan", "solve", "--domain", str(rd), "--problem",
                    str(rp), "--det-index", "1"])
    assert proc.returncode == 4


# detplan solve neither caps dead ends nor times anything
@pytest.mark.parametrize("options", [["--m-cap", "3"], ["--timings"]],
                         ids=["m-cap", "timings"])
def test_detplan_solve_rejects_options_it_ignores(triangle_files, capsys,
                                                  options):
    domain, problem = triangle_files
    with pytest.raises(SystemExit) as exc:  # argparse: an undeclared option
        main(["detplan", "solve", "--domain", domain, "--problem", problem,
              "--det-mlo", *options])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert options[0] in err


# each option given in a mode that does not read it: exit 2 before anything
# is loaded, run or written; {planner} leaves a file behind when it runs
UNREAD = {
    "detplan-k0": (["detplan", "solve", "--det-mlo", "--k", "0"],
                   "--k requires --det-learn"),
    "detplan-k3": (["detplan", "solve", "--det-index", "0", "--k", "3"],
                   "--k requires --det-learn"),
    "detplan-epsilon-seed": (["detplan", "solve", "--det-mlo", "--epsilon",
                              "0.5", "--seed", "7"],
                             "--epsilon, --seed require --det-learn"),
    "external-subplanner-budget": (
        ["detplan", "solve", "--det-mlo", "--external", "{planner}",
         "--subplanner-budget", "1"],
        "--external does not take --subplanner-budget"),
    "external-optimal-subplanner-budget": (
        ["detplan", "solve", "--det-learn", "{problem}", "--external",
         "{planner}", "--optimal", "--subplanner-budget", "1"],
        "--external does not take --optimal"),
    "oracle-k-det": (["oracle", "vi", "--k", "1", "--det-mlo"],
                     "--k, --det-mlo require --reduced"),
    "gen-chain-n": (["gen", "chain", "--n", "7"], "gen chain does not take --n"),
    "gen-triangle-length": (["gen", "triangle", "--length", "3"],
                            "gen triangle does not take --length"),
    "gen-trap-n": (["gen", "trap", "--walk-length", "3", "--n", "2"],
                   "gen trap does not take --n"),
    "gen-retry-sizes": (["gen", "retry", "--walk-length", "3", "--length",
                         "2"], "gen retry does not take --length, --walk-length"),
}


@pytest.mark.parametrize("command,message", UNREAD.values(), ids=UNREAD)
def test_option_the_mode_does_not_read_exit_2(tmp_path, triangle_files,
                                              capsys, command, message):
    domain, problem = triangle_files
    ran = tmp_path / "ran"
    planner = shlex.join([sys.executable, "-c", f"open({str(ran)!r}, 'w')"])
    files = (["--out-dir", str(tmp_path / "gen")] if command[0] == "gen" else
             ["--domain", domain, "--problem", problem])
    code = main([*(arg.format(planner=planner, problem=problem)
                   for arg in command), *files])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not ran.exists() and not (tmp_path / "gen").exists()


def test_detplan_solve_reads_learning_options_with_det_learn(
        tmp_path, triangle_files, capsys, monkeypatch):
    domain, problem = triangle_files
    solve = ["detplan", "solve", "--domain", domain, "--problem", problem]
    assert main([*solve, "--det-learn", problem, "--k", "1",
                 "--epsilon", "0.5", "--seed", "7"]) == 0
    # learning takes the sub-planner budget, so the external planner runs
    ran = tmp_path / "ran"
    planner = shlex.join([sys.executable, "-c",
                          f"open({str(ran)!r}, 'w'); raise SystemExit(1)"])
    assert main([*solve, "--det-learn", problem, "--external", planner,
                 "--subplanner-budget", "50"]) == 4
    assert ran.exists()
    # a seed from the environment is not given on the command line
    monkeypatch.setenv("SSPKIT_SEED", "7")
    capsys.readouterr()
    assert main([*solve, "--det-mlo"]) == 0
    assert capsys.readouterr().out.startswith("; status = plan\n")


def test_oracle_vi_and_enumerate(tmp_path):
    domain_text, problem_text = gen_chain(2)
    domain = tmp_path / "d.ppddl"
    problem = tmp_path / "p.ppddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    out = tmp_path / "vi.json"
    code = main(["oracle", "vi", "--domain", str(domain), "--problem",
                 str(problem), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["states"] == 3
    assert payload["v_initial"] == pytest.approx(2.0, abs=1e-3)

    dump = tmp_path / "model.json"
    code = main(["oracle", "enumerate", "--domain", str(domain), "--problem",
                 str(problem), "--out", str(dump)])
    assert code == 0
    payload = json.loads(dump.read_text())
    assert len(payload["states"]) == 3
    assert payload["states"][0]["goal"] is False
    assert payload["states"][2]["goal"] is True
    assert all(t["cost"] == 1.0 for t in payload["transitions"])


def test_oracle_vi_sweep_bound_exit_4(tmp_path, capsys, monkeypatch):
    from sspkit import oracle

    domain_text, problem_text = gen_retry()
    domain = tmp_path / "d.ppddl"
    problem = tmp_path / "p.ppddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    out = tmp_path / "vi.json"
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 5)
    code = main(["oracle", "vi", "--domain", str(domain), "--problem",
                 str(problem), "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == \
        "error: value iteration exceeded 5 sweeps\n"
    assert not out.exists()


# oracle samples and times nothing, --k and a determinization source mean
# something only for the reduced model, and enumerate solves nothing
ORACLE_IGNORED = {"seed": ["--seed", "9"], "timings": ["--timings"],
                  "k2": ["--k", "2"], "k0": ["--k", "0"],
                  "det-mlo": ["--det-mlo"]}
ENUMERATE_IGNORED = {"epsilon": ["--epsilon", "0.5"], "m-cap": ["--m-cap", "3"]}


@pytest.mark.parametrize("subcommand,options", [
    *(pytest.param(subcommand, options, id=f"{subcommand}-{name}")
      for subcommand in ("vi", "enumerate")
      for name, options in ORACLE_IGNORED.items()),
    *(pytest.param("enumerate", options, id=f"enumerate-{name}")
      for name, options in ENUMERATE_IGNORED.items())])
def test_oracle_rejects_options_it_ignores(triangle_files, capsys, subcommand,
                                           options):
    domain, problem = triangle_files
    try:
        code = main(["oracle", subcommand, "--domain", domain,
                     "--problem", problem, *options])
    except SystemExit as exc:  # argparse: an undeclared option
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert options[0] in err


GOLDEN_CHAIN1_DUMP = {
    "schema_version": 1,
    "problem": "chain-1",
    "states": [
        {"index": 0, "atoms": ["(at p0)", "(next p0 p1)"], "goal": False},
        {"index": 1, "atoms": ["(at p1)", "(next p0 p1)"], "goal": True},
    ],
    "transitions": [
        {"state": 0, "action": "(step p0 p1)",
         "successors": [[1, 1.0]], "cost": 1.0},
    ],
}


def test_oracle_enumerate_golden_dump(tmp_path):
    domain_text, problem_text = gen_chain(1)
    domain = tmp_path / "d.ppddl"
    problem = tmp_path / "p.ppddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    out = tmp_path / "dump.json"
    code = main(["oracle", "enumerate", "--domain", str(domain), "--problem",
                 str(problem), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == GOLDEN_CHAIN1_DUMP


def test_simulate_serve_stdio(tmp_path):
    domain_text, problem_text = gen_chain(2)
    domain = tmp_path / "d.ppddl"
    problem = tmp_path / "p.ppddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    actions = ["(step p0 p1)", "(step p1 p2)"]
    stdin = "".join(json.dumps({"action": a}) + "\n" for a in actions)
    proc = subprocess.run(
        [sys.executable, "-m", "sspkit.cli", "simulate", "--domain",
         str(domain), "--problem", str(problem),
         "--serve-stdio", "--rounds", "1", "--seed", "0"],
        input=stdin, capture_output=True, text=True)
    assert proc.returncode == 0
    lines = [json.loads(l) for l in proc.stdout.splitlines()]
    assert lines[0]["type"] == "hello"
    assert lines[-1]["type"] == "eval"
    assert lines[-1]["successes"] == 1


def test_serve_stdio_survives_a_line_that_is_not_utf8(tmp_path):
    # outside the C/POSIX locale and UTF-8 mode stdin decodes strictly; the
    # server reads byte lines, so the lines after the bad one still count
    domain_text, problem_text = gen_chain(2)
    domain = tmp_path / "d.ppddl"
    problem = tmp_path / "p.ppddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    actions = "".join(json.dumps({"action": a}) + "\n"
                      for a in ["(step p0 p1)", "(step p1 p2)"])
    proc = subprocess.run(
        [sys.executable, "-m", "sspkit.cli", "simulate", "--domain",
         str(domain), "--problem", str(problem),
         "--serve-stdio", "--rounds", "2", "--seed", "0"],
        input=b"\xff\xfe\n" + actions.encode(), capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    lines = [json.loads(l) for l in proc.stdout.splitlines()]
    assert [l["type"] for l in lines] == [
        "hello", "state", "round-end", "state", "state", "round-end", "eval"]
    assert [l["outcome"] for l in lines if l["type"] == "round-end"] == [
        "invalid_action", "goal"]


# a report or path on stdout is UTF-8 whatever the stdio encoding
@pytest.mark.parametrize("command", ["detplan", "gen"])
def test_stdout_is_utf8_whatever_the_stdio_encoding(tmp_path, command):
    domain = tmp_path / "d.ppddl"
    problem = tmp_path / "p.ppddl"
    if command == "detplan":
        for path, text in zip((domain, problem), gen_chain(2)):
            path.write_text(text.replace("p2", "p\u00e9"), encoding="utf-8")
        args = ["detplan", "solve", "--domain", str(domain),
                "--problem", str(problem), "--det-mlo"]
        expected = ("; status = plan\n; cost = 2.0\n"
                    "(step p0 p1)\n(step p1 p\u00e9)\n")
    else:
        out_dir = tmp_path / "d\u00e9"
        args = ["gen", "chain", "--length", "1", "--out-dir", str(out_dir)]
        expected = (f"{out_dir}/chain-1-domain.ppddl\n"
                    f"{out_dir}/chain-1-problem.ppddl\n")
    proc = subprocess.run([sys.executable, "-m", "sspkit.cli", *args],
                          capture_output=True,
                          env={**os.environ, "PYTHONIOENCODING": "ascii"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode("utf-8") == expected


# the client chooses the actions, so the server has no determinization,
# does not plan and writes no report; a planning option given at its
# default value is rejected too
@pytest.mark.parametrize("options,named", [
    (["--det-mlo"], "--det-mlo"),
    (["--out", "{dir}/sv.json"], "--out"),
    (["--csv", "{dir}/sv.csv"], "--csv"),
    (["--det-index", "0", "--out", "{dir}/sv.json", "--csv", "{dir}/sv.csv"],
     "--det-index, --out, --csv"),
    (["--k", "0"], "--k"),
    (["--epsilon", "0.001"], "--epsilon"),
    (["--time-budget", "5"], "--time-budget"),
    (["--subplanner-budget", "100000"], "--subplanner-budget"),
    (["--timings"], "--timings"),
], ids=["det-mlo", "out", "csv", "all", "k", "epsilon", "time-budget",
        "subplanner-budget", "timings"])
def test_serve_stdio_rejects_source_and_outputs(tmp_path, triangle_files,
                                                monkeypatch, capsys, options,
                                                named):
    domain, problem = triangle_files
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code = main(["simulate", "--domain", domain, "--problem", problem,
                 "--serve-stdio", "--rounds", "1",
                 *(option.format(dir=tmp_path) for option in options)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""  # no protocol message was sent
    assert err == f"error: --serve-stdio does not take {named}\n"
    assert not (tmp_path / "sv.json").exists()
    assert not (tmp_path / "sv.csv").exists()
