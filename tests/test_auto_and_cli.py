"""Tests for the auto strategy and the command-line interface."""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.compiler import CompileContext, compile_resharding
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import STRATEGIES, AutoStrategy, BroadcastStrategy, make_strategy


def make_task(src_spec="RS0R", dst_spec="S0RR", shape=(64, 64, 64)):
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


# ----------------------------------------------------------------------
# AutoStrategy
# ----------------------------------------------------------------------
def test_auto_picks_fastest_candidate():
    task = make_task()
    compiled = compile_resharding(
        task, CompileContext(strategy=AutoStrategy(), cache=None)
    )
    t_auto = simulate_plan(compiled.plan).total_time
    for name in ("send_recv", "allgather", "broadcast"):
        t = simulate_plan(make_strategy(name).plan(task)).total_time
        assert t_auto <= t + 1e-12
    assert len(compiled.scores) == 3


def test_auto_registered_in_registry():
    assert isinstance(make_strategy("auto"), AutoStrategy)


def test_auto_custom_candidates():
    auto = AutoStrategy(candidates=[BroadcastStrategy(scheduler="naive")])
    plan = auto.plan(make_task())
    assert plan.strategy == "broadcast"
    with pytest.raises(ValueError):
        AutoStrategy(candidates=[])


def test_auto_prefers_broadcast_on_replication_heavy_case():
    """For large replicated messages the §3.1-optimal broadcast wins."""
    task = make_task("RRR", "RRR", shape=(1 << 26, 1, 1))  # 256 MiB
    auto = AutoStrategy()
    plan = auto.plan(task)
    assert plan.strategy == "broadcast"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_reshard(capsys):
    rc = main([
        "reshard", "--shape", "64,64,16", "--src-spec", "RS0R",
        "--dst-spec", "S0RR", "--strategy", "broadcast",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "broadcast" in out and "latency" in out


def test_cli_reshard_all_with_verify(capsys):
    rc = main([
        "reshard", "--shape", "32,32,8", "--src-spec", "S0RR",
        "--dst-spec", "RS1R", "--strategy", "all", "--verify",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified=True" in out
    # signal carries no data, so it must not print a verification flag
    for line in out.splitlines():
        if line.strip().startswith("signal"):
            assert "verified" not in line


def test_cli_reshard_dump_plan_after_emit(capsys):
    rc = main([
        "reshard", "--shape", "8,8,8", "--src-spec", "S0RR",
        "--dst-spec", "RS1R", "--strategy", "broadcast",
        "--dump-plan-after", "emit",
    ])
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    after = lines.index("-- after emit --")
    assert lines[after + 1].startswith("schedule[")
    assert "assignment=" in lines[after + 1]
    assert lines[after + 2].startswith("BroadcastOp(")


def test_cli_reshard_bad_mesh(capsys):
    rc = main([
        "reshard", "--shape", "8,8", "--src-spec", "S0R", "--dst-spec", "RR",
        "--src-mesh", "2", "--dst-mesh", "2,2",
    ])
    assert rc == 2


def test_cli_e2e_small(capsys):
    rc = main(["e2e", "--model", "gpt1", "--method", "signal"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "TFLOPS/GPU" in out


def test_cli_e2e_cache_stats_reports_the_default_run(capsys):
    # each pipeline edge resolves its plan once per direction per method
    assert main(["e2e", "--cache-stats"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "plan cache: 12 request(s), 0 hit(s) (0.0%), 12 compile(s)"


def test_cli_experiment_table1(capsys):
    rc = main(["experiment", "E3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "216M" in out


def test_cli_experiment_runs_the_extensions(capsys):
    from repro.experiments import interleaving
    from repro.experiments.common import format_markdown

    assert main(["experiment", "S3"]) == 0
    assert capsys.readouterr().out == format_markdown(interleaving.run()) + "\n"


def test_cli_experiment_s2_prints_both_tables(capsys, monkeypatch):
    from repro.experiments import scaling
    from repro.experiments.common import ExperimentTable

    def table(eid):
        return lambda: ExperimentTable(experiment_id=eid, title=eid, columns=["x"])

    monkeypatch.setattr(scaling, "run", table("S2 (extension)"))
    monkeypatch.setattr(scaling, "run_scheduler_scaling", table("S2b (extension)"))
    assert main(["experiment", "S2"]) == 0
    out = capsys.readouterr().out
    assert out.index("### S2 (extension)") < out.index("### S2b (extension)")


def test_cli_bad_shape():
    with pytest.raises(SystemExit):
        main(["reshard", "--shape", "abc", "--src-spec", "R", "--dst-spec", "R"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# CLI error contract: 0 ok, 1 plan rejected or check failed, 2 bad
# input, 3 compile timeout; every error line starts "repro <cmd>:"
# ----------------------------------------------------------------------
RESHARD = ["reshard", "--shape", "8,8,8", "--src-spec", "S0RR", "--dst-spec", "RS1R"]
#: an auto case whose fastest candidate (send_recv, 0.94 ms) breaks a
#: 200,000 B budget; the pick within budget is allgather (2.86 ms)
AUTO_UNDER_BUDGET = [
    "reshard", "--shape", "64,64,64", "--src-spec", "S0RR", "--dst-spec", "RS1R",
    "--strategy", "auto", "--memory-budget", "200000", "--explain",
]

CONTRACT = [
    # (argv, exit code, regex searched in stderr, or in stdout on exit 0)
    pytest.param(["reshard", "--shape", "0,4,4", "--src-spec", "S0RR",
                  "--dst-spec", "RS1R"], 2, "size 0", id="zero-dim"),
    pytest.param(["reshard", "--shape=-4,8,8", "--src-spec", "S0RR",
                  "--dst-spec", "RS1R"], 2, "size -4", id="negative-dim"),
    pytest.param([*RESHARD, "--src-mesh", "0,4"], 2, "at least one host",
                 id="zero-host-mesh"),
    pytest.param(["reshard", "--shape", "1,1,1", "--src-spec", "S0RR",
                  "--dst-spec", "RS1R"], 2, "cannot split", id="unsplittable"),
    pytest.param([*RESHARD, "--src-mesh", "2,4,1"], 2, "2-D", id="3d-mesh"),
    pytest.param(["reshard", "--shape", "8,8,8", "--src-spec", "XYZ",
                  "--dst-spec", "RS1R"], 2, "bad sharding spec", id="bad-spec"),
    pytest.param([*RESHARD, "--timeout", "-1"], 2, "deadline must be",
                 id="negative-timeout"),
    pytest.param([*RESHARD, "--memory-budget", "nan"], 2, "memory_budget must be",
                 id="nan-budget"),
    pytest.param([*RESHARD, "--memory-budget", "10"], 1, "M001", id="over-budget"),
    # uncached: a plan an earlier test left in the cache costs no compile
    pytest.param([*RESHARD, "--timeout", "1e-7", "--no-cache"], 3,
                 "exceeded its deadline", id="timeout"),
    pytest.param(["serve", "--workers", "0"], 2, "n_workers", id="serve-no-workers"),
    pytest.param(["fuzz", "--runs", "-1"], 2, "runs", id="fuzz-negative-runs"),
    # --check on an empty run would pass without checking anything
    pytest.param(["fuzz", "--runs", "0", "--check"], 2, "checks nothing",
                 id="fuzz-check-zero-runs"),
    pytest.param(["serve", "--profile", "steady", "--requests", "0", "--check"], 2,
                 "checks nothing", id="serve-check-zero-requests"),
    pytest.param(["serve", "--profile", "steady", "--requests", "0", "--check",
                  "--chaos"], 2, "checks nothing", id="serve-chaos-check-zero-requests"),
    # a file the command cannot open is bad input, not a failed check
    pytest.param([*RESHARD, "--trace-out", "{tmp}/missing/x.json"], 2,
                 "No such file", id="trace-out-missing-dir"),
    pytest.param(["analyze", "--plan-json", "{tmp}/missing.json"], 2,
                 "No such file", id="analyze-missing-plan-json"),
    # a path with no .py file would lint nothing and pass as clean
    pytest.param(["lint", "{tmp}/missing_dir"], 2, "nothing to lint",
                 id="lint-no-python-files"),
    pytest.param(["analyze", "--shape", "8,8,8"], 2, "needs --src-spec",
                 id="analyze-shape-without-specs"),
    pytest.param(AUTO_UNDER_BUDGET, 0, r"auto +latency= +2\.86 ms",
                 id="auto-times-the-plan-it-validated"),
]


@pytest.mark.parametrize("argv, code, pattern", CONTRACT)
def test_cli_error_contract(argv, code, pattern, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith(f"repro {argv[0]}: ")
        assert "Traceback" not in err
        assert re.search(pattern, err)
    else:
        assert err == ""
        assert re.search(pattern, out)


def test_cli_writes_only_what_it_is_asked_to(tmp_path, monkeypatch, capsys):
    home, out = tmp_path / "home", tmp_path / "out"
    home.mkdir()
    out.mkdir()
    monkeypatch.setenv("HOME", str(home))
    assert main(RESHARD) == 0
    assert main(["e2e", "--model", "gpt1", "--method", "ours"]) == 0
    assert list(home.iterdir()) == []
    assert main([*RESHARD, "--trace-out", str(out / "t.json")]) == 0
    assert list(home.iterdir()) == []
    assert list(out.iterdir()) == [out / "t.json"]


def test_cli_verify_refuses_signal_up_front(capsys):
    assert main([*RESHARD, "--strategy", "signal", "--verify"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any compile or output
    assert "'signal' moves no data" in err


def test_cli_all_with_verify_says_signal_was_not_checked(capsys):
    assert main([*RESHARD, "--strategy", "all", "--verify"]) == 0
    (row,) = [
        line for line in capsys.readouterr().out.splitlines()
        if line.strip().startswith("signal")
    ]
    assert row.endswith("(moves no data; not checked)")


def test_cli_failed_verification_prints_its_row(monkeypatch, capsys):
    import repro.core.data as data

    real = data.apply_plan

    def corrupting(plan, src):
        moved = real(plan, src)
        for shard in moved.shards.values():
            shard.flat[0] += 1
        return moved

    monkeypatch.setattr(data, "apply_plan", corrupting)
    assert main([*RESHARD, "--strategy", "all", "--verify"]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    # the first strategy fails, prints its verdict, and stops the run
    assert len(rows) == 1 and rows[0].startswith("  allgather")
    assert rows[0].endswith("verified=False")


@pytest.mark.parametrize("extra", [[], ["--no-cache"],
                                   ["--explain", "--memory-budget", "1e9", "--verify"],
                                   ["--dump-plan-after", "emit"]],
                         ids=["cached", "no-cache", "explain-budget-verify", "dump"])
def test_cli_reshard_compiles_once_per_strategy(extra, monkeypatch, capsys):
    import repro.compiler as compiler
    import repro.compiler.pipeline as pipeline

    real = pipeline.compile_resharding
    calls = []

    def counting(task, ctx):
        calls.append(ctx.strategy)
        return real(task, ctx)

    # both import sites: the package's re-export and the library's own
    monkeypatch.setattr(compiler, "compile_resharding", counting)
    monkeypatch.setattr(pipeline, "compile_resharding", counting)
    assert main([*RESHARD, "--strategy", "all", *extra]) == 0
    assert calls == sorted(STRATEGIES)


# ----------------------------------------------------------------------
# CLI fuzzer: every input exits 0/1/2/3 (or argparse's SystemExit(2)),
# and exits 0 only with a result printed
# ----------------------------------------------------------------------
_NUMBERS = st.sampled_from(
    ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e-7", "10", "1e9", "1e300"]
)


def _mostly(draw, usual, odd):
    """Draw from ``odd`` one time in five, else from ``usual``, so that
    enough inputs get past the first check to reach the later ones."""
    return draw(draw(st.sampled_from([usual, usual, usual, usual, odd])))


def _spec(rank, axes):
    """The well-formed spec in which mesh axis ``i`` shards tensor dim
    ``axes[i]`` (-1: that axis shards nothing)."""
    dims = ["".join(str(ax) for ax in (0, 1) if axes[ax] == dim) for dim in range(rank)]
    return "".join(f"S{d}" if d else "R" for d in dims)


@st.composite
def _cli_inputs(draw):
    rank = draw(st.integers(1, 3))
    entry = st.integers(1, 8).map(str)
    odd_entry = st.sampled_from(["0", "-1", "-4", "1.5", "x"])
    shape = [_mostly(draw, entry, odd_entry) for _ in range(rank)]
    specs = [
        _mostly(
            draw,
            st.tuples(st.integers(-1, rank - 1), st.integers(-1, rank - 1)).map(
                lambda axes: _spec(rank, axes)
            ),
            st.text("RS01X", max_size=4),
        )
        for _ in range(2)
    ]
    meshes = [
        _mostly(
            draw,
            st.tuples(st.integers(1, 3), st.integers(1, 3)),
            st.lists(st.integers(-1, 3), min_size=1, max_size=3),  # 0, <0, 1-D, 3-D
        )
        for _ in range(2)
    ]
    return _cli_args(
        shape=",".join(shape), src_spec=specs[0], dst_spec=specs[1],
        src_mesh=",".join(map(str, meshes[0])), dst_mesh=",".join(map(str, meshes[1])),
        budget=_mostly(draw, st.none(), _NUMBERS),
        deadline=_mostly(draw, st.none(), _NUMBERS),
        strategy=draw(st.sampled_from(sorted(STRATEGIES))),
    )


def _cli_args(shape="8,8,8", src_spec="S0RR", dst_spec="RS1R", src_mesh="2,4",
              dst_mesh="2,4", budget=None, deadline=None, strategy="broadcast"):
    return dict(shape=shape, src_spec=src_spec, dst_spec=dst_spec,
                src_mesh=src_mesh, dst_mesh=dst_mesh, budget=budget,
                deadline=deadline, strategy=strategy)


@settings(max_examples=60, deadline=None)
@given(args=_cli_inputs())
@example(args=_cli_args(shape="0,4,4"))
@example(args=_cli_args(shape="-4,8,8"))
@example(args=_cli_args(src_mesh="0,4"))
@example(args=_cli_args(shape="1,1,1"))
@example(args=_cli_args(src_mesh="2,4,1", dst_mesh="2"))
@example(args=_cli_args(src_spec="XYZ"))
@example(args=_cli_args(budget="nan", deadline="-1"))
@example(args=_cli_args(budget="10", strategy="auto"))
@example(args=_cli_args(deadline="1e-7", strategy="signal"))
def test_cli_fuzz_keeps_the_error_contract(args):
    common = [
        f"--shape={args['shape']}", f"--src-spec={args['src_spec']}",
        f"--dst-spec={args['dst_spec']}", f"--src-mesh={args['src_mesh']}",
        f"--dst-mesh={args['dst_mesh']}", f"--strategy={args['strategy']}",
    ]
    if args["budget"] is not None:
        common.append(f"--memory-budget={args['budget']}")
    runs = [["reshard", *common]]
    if args["deadline"] is not None:
        runs[0].append(f"--timeout={args['deadline']}")
    if args["strategy"] != "signal":  # analyze does not offer it
        runs.append(["analyze", *common])
    for argv in runs:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as usage:
            assert usage.code == 2, argv
            continue
        assert code in (0, 1, 2, 3), argv
        if code == 0:
            assert ("latency=" if argv[0] == "reshard" else "  ok ") in out.getvalue(), argv
