import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stablepgf
from stablepgf import measures
from stablepgf.cli import EXPERIMENTS, main

EXPECTED_NAMES = [
    "quad-death-preserve",
    "double-root-counterexample",
    "birth-monotonicity",
    "hermite-law",
    "kummer-law",
    "kingman-bp",
    "wright-fisher",
    "trotter-split",
    "particles-na",
    "tstable-certify",
]


def run_cli(args):
    # the child imports the same stablepgf as this process, installed or not
    src = os.path.dirname(os.path.dirname(stablepgf.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "stablepgf.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestListDescribe:
    def test_ten_experiments(self):
        res = run_cli(["list"])
        assert res.returncode == 0
        assert res.stdout.split() == EXPECTED_NAMES

    def test_describe_schema(self):
        res = run_cli(["describe", "kingman-bp"])
        assert res.returncode == 0
        schema = json.loads(res.stdout)
        assert schema["params"]["n"] == {"type": "int", "default": 100}
        assert "claim" in schema

    def test_describe_unknown_exits_2(self):
        res = run_cli(["describe", "no-such-thing"])
        assert res.returncode == 2


class TestRun:
    def test_double_root_run(self, tmp_path):
        out = tmp_path / "arts"
        code = main(
            [
                "run",
                "double-root-counterexample",
                "--param",
                "r=0.5",
                "--param",
                "t=0.1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads((out / "double-root-counterexample.json").read_text())
        assert data["schema_version"] == 1
        assert data["passed"] is True
        assert data["results"]["certificate"]["verdict"] == "Refuted"
        im = data["results"]["witness_im"]
        import math

        t = 0.1
        disc = math.exp(-4 * t) - math.exp(-2 * t)
        assert abs(im - math.sqrt(-disc) / (2 * math.exp(-2 * t))) < 1e-12
        assert "claim" in data

    def test_unknown_param_exits_2(self, tmp_path):
        code = main(
            ["run", "double-root-counterexample", "--param", "bogus=1", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "name, param",
        [
            ("double-root-counterexample", "r=2"),
            ("double-root-counterexample", "t=nan"),
            ("double-root-counterexample", "t=-1"),
            ("kingman-bp", "n=0"),
            ("hermite-law", "w=0.5"),
            ("wright-fisher", "start=-3"),
            ("hermite-law", "n=0"),
            ("kummer-law", "n=0"),
            ("kingman-bp", "t=nan"),
            ("quad-death-preserve", "deg_max=0"),
            ("trotter-split", "t=0"),
            ("trotter-split", "d2=inf"),
            # finite values that the kernels refuse: lambda*t above the
            # series cap, and a death rate whose sum overflows
            ("kingman-bp", "t=1e300"),
            ("trotter-split", "b0=1e300"),
            ("trotter-split", "d2=1e308"),
            ("particles-na", "count=0"),
            ("tstable-certify", "sigma=-1/2"),
            ("tstable-certify", "sigma=1/0"),
            ("tstable-certify", "sigma=abc"),
            ("tstable-certify", "sigma=1e999999999"),
            ("birth-monotonicity", "t_grid=abc"),
            ("birth-monotonicity", "t_grid=-1"),
            ("birth-monotonicity", "t_grid=nan"),
            ("birth-monotonicity", "t_grid=0.001;inf"),
            # a dict is a --config file: its JSON value has the wrong type
            pytest.param("double-root-counterexample", {"t": True}, id="config-t=true"),
            pytest.param("birth-monotonicity", {"t_grid": 5}, id="config-t_grid=5"),
        ],
    )
    def test_invalid_value_exits_2(self, tmp_path, capsys, name, param):
        if isinstance(param, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(param))
            args = ["--config", str(cfg)]
        else:
            args = ["--param", param]
        code = main(["run", name, *args, "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_lie_split_box_above_the_cap_exits_2(self, tmp_path, capsys):
        # the split's box of 5 + ceil(10 + 5 * 2000 * 0.5) + 20 = 5035
        # states is refused before the evolve reference runs
        args = ["--param", "b0=2000", "--param", "d1=0", "--param", "d2=0"]
        code = main(["run", "trotter-split", *args, "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "trotter-split: Lie split box N = 5035 is above the cap 1024"
        ]

    @pytest.mark.parametrize("b0,N", [("20000", 50035), ("200000", 500035)])
    def test_lie_split_box_refused_before_any_work(self, tmp_path, capsys, b0, N):
        # the evolve reference on these boxes would take about 10 s and over 590 s
        args = ["--param", f"b0={b0}", "--param", "d1=0", "--param", "d2=0"]
        start = time.perf_counter()
        code = main(["run", "trotter-split", *args, "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"trotter-split: Lie split box N = {N} is above the cap 1024"]

    @pytest.mark.parametrize("command", ["run", "suite"])
    @pytest.mark.parametrize(
        "flag,value,shown",
        [
            ("seed", "-1", "-1"),
            ("tol", "nan", "nan"),
            ("tol", "inf", "inf"),
            ("tol", "0", "0.0"),
            ("tol", "-1e-9", "-1e-09"),
        ],
    )
    def test_bad_seed_or_tol_exits_2(self, tmp_path, capsys, command, flag, value, shown):
        # a negative seed fails inside numpy, and tol = nan would write "tol": NaN
        name = ["double-root-counterexample"] if command == "run" else []
        code = main([command, *name, f"--{flag}={value}", "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.strip().splitlines() == [f"--{flag}={shown} is out of range"]

    def test_artifact_is_strict_json(self, tmp_path):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        assert main(["run", "kingman-bp", "--seed", "3", "--tol", "1e-6", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "kingman-bp.json").read_text(), parse_constant=refuse)
        assert (data["seed"], data["tol"]) == (3, 1e-6)

    def test_error_inside_a_run_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(p, seed):
            raise ValueError("internal")

        monkeypatch.setitem(EXPERIMENTS["kummer-law"], "run", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["run", "kummer-law", "--out", str(tmp_path)])

    def test_unknown_name_exits_2(self, tmp_path):
        code = main(["run", "not-an-experiment", "--out", str(tmp_path)])
        assert code == 2

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "birth-monotonicity", "--out", str(out)]) == 0
        assert (a / "birth-monotonicity.json").read_bytes() == (
            b / "birth-monotonicity.json"
        ).read_bytes()

    def test_hermite_csv_artifact(self, tmp_path):
        out = tmp_path / "h"
        assert main(["run", "hermite-law", "--param", "n=2", "--out", str(out)]) == 0
        csv = (out / "hermite-law.root_trajectories.csv").read_text().splitlines()
        assert csv[0] == "t,root_index,re,im"
        assert len(csv) > 5

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 0.3, "t": 0.2}))
        out = tmp_path / "c"
        assert (
            main(["run", "double-root-counterexample", "--config", str(cfg), "--out", str(out)])
            == 0
        )
        data = json.loads((out / "double-root-counterexample.json").read_text())
        assert data["params"]["r"] == 0.3

    @pytest.mark.parametrize("count", [2.7, 0.5, True])
    def test_config_non_integer_for_int_exits_2(self, tmp_path, capsys, count):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": count}))
        out = tmp_path / "c"
        code = main(["run", "particles-na", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "not an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "No such file"),
            ('{"r": ', "Expecting value"),
            ("[1, 2]", "not a JSON object"),
            ('"r=0.3"', "not a JSON object"),
            (b"\xff\xfe{", "codec can't decode"),
        ],
        ids=["missing", "truncated", "list", "string", "not-utf8"],
    )
    def test_bad_config_file_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        elif text is not None:
            cfg.write_text(text)
        out = tmp_path / "c"
        code = main(["run", "double-root-counterexample", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert message in err
        assert not out.exists()

    def test_config_integral_float_for_int(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 2.0}))
        out = tmp_path / "c"
        assert main(["run", "particles-na", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "particles-na.json").read_text())
        assert data["params"]["count"] == 2
        assert data["results"]["fixtures"] == 2



def _files(out):
    """Each file in out by name: its inode, mtime and bytes."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes()) for p in out.iterdir()}


class TestArtifactWrites:
    """A rerun leaves an identical artifact in place and replaces any other
    file at its path atomically, through a temporary file that never
    outlives the write."""

    def test_suite_rerun_keeps_each_artifact(self, tmp_path, capsys):
        assert main(["suite", "--out", str(tmp_path)]) == 0
        first = _files(tmp_path)
        assert main(["suite", "--out", str(tmp_path)]) == 0
        assert _files(tmp_path) == first
        assert {name.rsplit(".", 1)[1] for name in first} == {"json", "csv"}

    def test_changed_artifact_is_replaced(self, tmp_path):
        args = ["run", "quad-death-preserve", "--param", "count=5"]
        path = tmp_path / "a" / "quad-death-preserve.json"
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        inode, old = path.stat().st_ino, path.read_bytes()
        assert main([*args, "--seed", "1", "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--seed", "1", "--out", str(tmp_path / "b")]) == 0
        assert path.stat().st_ino != inode
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes() != old
        assert os.listdir(tmp_path / "a") == [path.name]

    @pytest.mark.parametrize("stale", ["truncated", "extended", "garbage", "empty"])
    def test_stale_file_is_replaced(self, tmp_path, stale):
        name = "birth-monotonicity.json"
        assert main(["run", "birth-monotonicity", "--out", str(tmp_path / "fresh")]) == 0
        data = (tmp_path / "fresh" / name).read_bytes()
        path = tmp_path / "out" / name
        path.parent.mkdir()
        path.write_bytes(
            {"truncated": data[:-1], "extended": data + b"\n", "garbage": b"\xff" * len(data), "empty": b""}[
                stale
            ]
        )
        inode = path.stat().st_ino
        assert main(["run", "birth-monotonicity", "--out", str(path.parent)]) == 0
        assert path.read_bytes() == data
        assert path.stat().st_ino != inode
        assert os.listdir(path.parent) == [name]

    def test_directory_at_the_artifact_path_raises_and_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "birth-monotonicity.json").mkdir()
        with pytest.raises(IsADirectoryError):
            main(["run", "birth-monotonicity", "--out", str(tmp_path)])
        assert os.listdir(tmp_path) == ["birth-monotonicity.json"]

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_write_raises_and_leaves_no_temp_file(self, tmp_path, monkeypatch, failing):
        fdopen = os.fdopen

        class FullDisk:
            def __init__(self, fd, mode):
                self.fh = fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        def refuse(src, dst):
            raise PermissionError(errno.EACCES, "Permission denied", dst)

        if failing == "write":
            monkeypatch.setattr(os, "fdopen", FullDisk)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            main(["run", "birth-monotonicity", "--out", str(tmp_path)])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["run", "suite"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_is_or_lies_under_a_file_exits_2(self, tmp_path, capsys, command, under):
        # refused before any experiment runs, so no PASS line is printed
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "sub" / "dir" if under else blocker
        name = ["double-root-counterexample"] if command == "run" else []
        assert main([command, *name, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"--out={out}: {blocker} is not a directory\n")
        assert os.listdir(tmp_path) == ["file"] and blocker.read_text() == "kept"


def test_every_registered_experiment_has_claim_and_defaults():
    for name, spec in EXPERIMENTS.items():
        assert spec["claim"]
        for key, (typ, default) in spec["params"].items():
            assert isinstance(default, (int, float, str))
        for key, ok in spec.get("valid", {}).items():
            assert ok(spec["params"][key][1])


def test_suite_passes_every_experiment(tmp_path, capsys):
    assert main(["suite", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n")[:-1] == [f"{name}: PASS" for name in EXPECTED_NAMES]
    for name in EXPECTED_NAMES:
        artifact = json.loads((tmp_path / f"{name}.json").read_text())
        assert artifact["passed"] is True and artifact["seed"] == 0
    # every law quad-death-preserve checks has exactly one kind of verdict
    laws = json.loads((tmp_path / "quad-death-preserve.json").read_text())["results"]
    kinds = laws["proven"] + laws["policy_stable"] + laws["inconclusive"] + laws["refuted"]
    assert kinds == laws["checked"] == 700 and laws["proven"] > 0


VALIDATED = sorted((name, key) for name, spec in EXPERIMENTS.items() for key in spec.get("valid", {}))


@st.composite
def rejected_values(draw):
    """One --param value that the experiment's own range check rejects."""
    name, key = draw(st.sampled_from(VALIDATED))
    typ = EXPERIMENTS[name]["params"][key][0]
    if typ is int:
        value = draw(st.integers(-(10**12), 10**12))
    elif typ is float:
        value = draw(st.floats())
    else:
        value = draw(st.text("0123456789.;-+/einf ", max_size=12))
    assume(not EXPERIMENTS[name]["valid"][key](typ(value)))
    return name, [f"{key}={value!r}" if typ is float else f"{key}={value}"]


@st.composite
def capped_values(draw):
    """Parameters that pass the range checks but put lambda*t above the
    series cap, which the kernels refuse before sizing anything by it."""
    cap = measures._MAX_POISSON_MEAN
    if draw(st.booleans()):
        n = draw(st.integers(2, 500))
        lam = n * (n - 1) / 2.0  # kingman's top death rate
        t = draw(st.floats(cap / lam, 1e300))
        assume(lam * t > cap)
        return "kingman-bp", [f"n={n}", f"t={t!r}"]
    b0 = draw(st.floats(1e-3, 1e300))
    t = draw(st.floats(min(cap / b0, 1e300), 1e300))
    assume(b0 * t > cap)
    return "trotter-split", [f"b0={b0!r}", f"t={t!r}"]


@given(st.one_of(rejected_values(), capped_values()))
@settings(max_examples=80, deadline=None)
def test_refused_values_exit_2_and_write_nothing(case):
    name, params = case
    args = [arg for kv in params for arg in ("--param", kv)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        out = os.path.join(tmp, "out")
        assert main(["run", name, *args, "--out", out]) == 2
        assert not os.path.exists(out)
    assert len(err.getvalue().strip().splitlines()) == 1
