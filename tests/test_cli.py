import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momdp_pareto
from momdp_pareto import (
    Mdp,
    SearchAbortError,
    SearchConfig,
    brute_force_front,
    gen_random_mdp,
    search,
)
from momdp_pareto.cli import main
from momdp_pareto.serialize import (
    dump_json,
    front_from_dict,
    front_to_csv,
    front_to_dict,
    front_to_off,
    mdp_from_dict,
    mdp_to_dict,
    sha256_hex,
)


def run(*argv):
    return main(list(argv))


@pytest.fixture
def mdp_file(tmp_path):
    path = tmp_path / "mdp.json"
    assert run("gen", "random", "--states", "4", "--actions", "3",
               "--objectives", "3", "--seed", "0", "-o", str(path)) == 0
    return path


class TestGen:
    def test_random_round_trips_valid(self, mdp_file):
        data = json.loads(mdp_file.read_text())
        m = mdp_from_dict(data)
        assert m.num_states == 4 and m.num_actions == 3 and m.num_objectives == 3

    def test_grid_dimensions(self, tmp_path):
        path = tmp_path / "grid.json"
        assert run("gen", "grid", "--rows", "3", "--cols", "3",
                   "--objectives", "3", "--seed", "1", "-o", str(path)) == 0
        data = json.loads(path.read_text())
        assert data["states"] == 9 and data["actions"] == 4

    def test_same_flags_byte_identical(self, tmp_path):
        path = tmp_path / "m.json"
        run("gen", "random", "--seed", "5", "-o", str(path))
        first = path.read_bytes()
        run("gen", "random", "--seed", "5", "-o", str(path))
        assert path.read_bytes() == first


class TestSolve:
    def test_success_and_stats_line(self, mdp_file, tmp_path, capsys):
        out = tmp_path / "front.json"
        assert run("solve", str(mdp_file), "-o", str(out)) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("vertices=")
        assert "planner_calls=1" in line
        counts = search(mdp_from_dict(json.loads(mdp_file.read_text()))).stats
        assert counts.lps_solved > 0 and counts.vertex_scans > 0
        assert (
            f" lps_solved={counts.lps_solved} lps_screened={counts.lps_screened} "
            f"vertex_scans={counts.vertex_scans} "
        ) in line
        data = json.loads(out.read_text())
        assert data["meta"]["tool"] == "momdp-pareto"
        assert data["meta"]["input_sha256"] == sha256_hex(mdp_file.read_bytes())
        front = front_from_dict(data)
        assert front.stats.planner_calls == 1

    def test_invalid_mdp_exits_2(self, mdp_file, tmp_path, capsys):
        data = json.loads(mdp_file.read_text())
        data["P"][0][0] = [0.5] * len(data["P"][0][0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("solve", str(bad), "-o", str(tmp_path / "f.json")) == 2
        assert "invalid" in capsys.readouterr().err

    def test_abort_exits_3(self, mdp_file, tmp_path, monkeypatch):
        def boom(mdp, config):
            raise SearchAbortError("start vertex inside the hull")

        monkeypatch.setattr("momdp_pareto.cli.search", boom)
        assert run("solve", str(mdp_file), "-o", str(tmp_path / "f.json")) == 3

    def test_rerun_byte_identical(self, mdp_file, tmp_path):
        out = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(out))
        first = out.read_bytes()
        run("solve", str(mdp_file), "-o", str(out))
        assert out.read_bytes() == first

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_meta_config_has_no_tolerances(self, mdp_file, tmp_path, command):
        out = tmp_path / "front.json"
        assert run(command, str(mdp_file), "-o", str(out)) == 0
        config = json.loads(out.read_text())["meta"]["config"]
        assert not [key for key in config if key.startswith("eps")]
        assert config["command"] == command and "thread_count" not in config


class TestBadSeed:
    """A negative seed used to print only numpy's "expected non-negative
    integer"."""

    def test_gen_exits_2(self, tmp_path, capsys):
        out = tmp_path / "mdp.json"
        assert run("gen", "random", "--seed", "-1", "-o", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be an int >= 0, got -1\n"
        assert not out.exists()

    def test_solve_and_verify_exit_2(self, mdp_file, tmp_path, capsys):
        front = tmp_path / "front.json"
        assert run("solve", str(mdp_file), "-o", str(front), "--seed", "-1") == 2
        assert capsys.readouterr().err == "error: seed must be an int >= 0, got -1\n"
        assert not front.exists()
        run("solve", str(mdp_file), "-o", str(front))
        capsys.readouterr()
        assert run("verify", str(mdp_file), str(front), "--seed", "-1") == 2
        assert capsys.readouterr().err == "error: seed must be an int >= 0, got -1\n"


class TestBadCap:
    """`oracle ... --cap -5` and `verify ... --cap -5` used to exit 4 with
    "enumeration needs 81 policies, above the cap of -5"."""

    def test_oracle_and_verify_exit_2(self, mdp_file, tmp_path, capsys):
        front = tmp_path / "front.json"
        assert run("oracle", str(mdp_file), "--cap", "-5", "-o", str(front)) == 2
        assert capsys.readouterr().err == "error: cap must be an int >= 1, got -5\n"
        assert not front.exists()
        run("solve", str(mdp_file), "-o", str(front))
        capsys.readouterr()
        assert run("verify", str(mdp_file), str(front), "--cap", "-5") == 2
        assert capsys.readouterr().err == "error: cap must be an int >= 1, got -5\n"

    def test_bench_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--states", "3", "--actions", "2", "--objectives", "2",
                   "--seeds", "1", "--cap", "0", "-o", str(out)) == 2
        assert capsys.readouterr().err == "error: cap must be an int >= 1, got 0\n"
        assert not out.exists()


class TestOracle:
    def test_matches_solve(self, mdp_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run("solve", str(mdp_file), "-o", str(a)) == 0
        assert run("oracle", str(mdp_file), "-o", str(b)) == 0
        assert run("compare", str(a), str(b)) == 0

    def test_policy_count_reported(self, mdp_file, tmp_path, capsys):
        assert run("oracle", str(mdp_file), "-o", str(tmp_path / "o.json")) == 0
        line = capsys.readouterr().out
        assert "policies_evaluated=81" in line
        counts = brute_force_front(mdp_from_dict(json.loads(mdp_file.read_text()))).stats
        assert f" lps_solved={counts.lps_solved} lps_screened={counts.lps_screened} " in line
        # The oracle looks no vertex up.
        assert " vertex_scans=0 " in line

    def test_cap_exits_4(self, tmp_path):
        big = tmp_path / "big.json"
        run("gen", "random", "--states", "5", "--actions", "5", "-o", str(big))
        assert run("oracle", str(big), "--cap", "100",
                   "-o", str(tmp_path / "o.json")) == 4


class TestCompare:
    def test_mismatch_exits_1(self, mdp_file, tmp_path):
        a = tmp_path / "a.json"
        run("solve", str(mdp_file), "-o", str(a))
        data = json.loads(a.read_text())
        data["vertices"][0]["return"][0] += 1e-3
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert run("compare", str(a), str(b)) == 1

    def test_json_report(self, mdp_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        run("solve", str(mdp_file), "-o", str(a))
        capsys.readouterr()
        assert run("compare", str(a), str(a), "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["vertex_match"] is True
        assert report["face_match"] is True


class TestVerify:
    def test_passes(self, mdp_file, tmp_path):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        assert run("verify", str(mdp_file), str(front), "--samples", "5") == 0

    def test_tampered_front_fails(self, mdp_file, tmp_path):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        data = json.loads(front.read_text())
        for v in data["vertices"]:
            v["return"] = [x - 0.25 for x in v["return"]]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        assert run("verify", str(mdp_file), str(bad), "--samples", "5") == 1

    def test_json_report(self, mdp_file, tmp_path, capsys):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        capsys.readouterr()
        assert run("verify", str(mdp_file), str(front), "--samples", "5",
                   "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_negative_samples_is_invalid_input(self, mdp_file, tmp_path, capsys):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        capsys.readouterr()
        assert run("verify", str(mdp_file), str(front), "--samples", "-3") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "samples_per_face" in err and "-3" in err

    def test_out_of_range_action_is_invalid_input(self, mdp_file, tmp_path, capsys):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        data = json.loads(front.read_text())
        data["vertices"][1]["actions"][0] = 9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("verify", str(mdp_file), str(bad)) == 2
        assert capsys.readouterr().err == (
            "error: vertex 1: action 9 at state 0 is not an integer in [0, 3)\n"
        )

    @pytest.mark.parametrize(
        "shape,key,value,lines",
        [
            ((3, 2, 2), ("gamma",), 1.0, ["gamma 1 outside [0, 1)"]),
            ((4, 3, 3), ("gamma",), 1.0, ["gamma 1 outside [0, 1)"]),
            (
                (4, 3, 3),
                ("mu",),
                [1.0, 0.0, 0.0, 0.0],
                [f"mu[{s}] not > 0 (value 0)" for s in (1, 2, 3)],
            ),
            ((4, 3, 3), ("P", 2, 1), [1.5, 0.0, 0.0, 0.0], ["P[2][1] row sums to 1.5, off by 0.5"]),
        ],
        ids=["gamma-3x2x2", "gamma-4x3x3", "mu", "P-row"],
    )
    def test_invalid_mdp_exits_2(self, tmp_path, capsys, shape, key, value, lines):
        """An MDP file edited after solving: gamma = 1 used to verify as
        passed, and the others to fail on the front's faces or raise
        "Singular matrix"."""
        S, A, D = shape
        path, front = tmp_path / "mdp.json", tmp_path / "front.json"
        assert run("gen", "random", "--states", str(S), "--actions", str(A),
                   "--objectives", str(D), "-o", str(path)) == 0
        assert run("solve", str(path), "-o", str(front)) == 0
        data = json.loads(path.read_text())
        *outer, last = key
        target = data
        for k in outer:
            target = target[k]
        target[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("verify", str(bad), str(front)) == 2
        assert capsys.readouterr().err == "".join(f"invalid: {line}\n" for line in lines)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda d: d["vertices"][1]["actions"].__setitem__(0, 2.5),
                "vertex 1: action at state 0 must be an integer, got 2.5",
            ),
            (
                lambda d: d["vertices"][1]["co_policies"].append([0, 0.5, 0, 0]),
                "vertex 1, co-policy 0: action at state 1 must be an integer, got 0.5",
            ),
            (
                lambda d: d["faces"][0]["vertex_ids"].__setitem__(0, len(d["vertices"])),
                "face 0: vertex id {n} is not in [0, {n})",
            ),
            (
                lambda d: d["faces"][0]["vertex_ids"].__setitem__(0, -1),
                "face 0: vertex id -1 is not in [0, {n})",
            ),
            (
                lambda d: d["faces"][0].__setitem__("dim", 1.5),
                "face 0: dim must be an integer, got 1.5",
            ),
            (
                lambda d: d["faces"][0]["vertex_ids"].clear(),
                "face 0: no vertex ids",
            ),
            (
                lambda d: [v.__setitem__("id", 100 + k) for k, v in enumerate(d["vertices"])],
                "vertex 0: id 100 is not its position 0",
            ),
        ],
        ids=[
            "fractional-action",
            "fractional-co-policy",
            "vertex-id-past-end",
            "negative-vertex-id",
            "fractional-dim",
            "no-vertex-ids",
            "vertex-ids-not-positions",
        ],
    )
    def test_inexact_front_entries_exit_2(self, mdp_file, tmp_path, capsys, edit, message):
        """A fractional action or dimension used to be truncated (2.5 read
        as 2, and verify passed), a face vertex id past the vertex list made
        verify die with an IndexError, -1 named the last vertex, a face
        with no vertex ids made verify die reshaping an empty array, and
        vertex ids other than their positions passed verify unread."""
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        data = json.loads(front.read_text())
        assert not data["vertices"][1]["co_policies"]
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("verify", str(mdp_file), str(bad)) == 2
        n = len(data["vertices"])
        assert capsys.readouterr().err == (
            f"error: malformed front payload: {message.format(n=n)}\n"
        )

    @pytest.mark.parametrize("key", ["states", "actions", "objectives"])
    def test_fractional_mdp_size_exits_2(self, mdp_file, tmp_path, capsys, key):
        """"states": 4.5 used to be read as 4."""
        data = json.loads(mdp_file.read_text())
        data[key] += 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("solve", str(bad), "-o", str(tmp_path / "front.json")) == 2
        assert capsys.readouterr().err == (
            f"error: malformed MDP payload: {key} must be an integer, got {data[key]!r}\n"
        )
        assert not (tmp_path / "front.json").exists()

    @pytest.mark.parametrize(
        "key,message",
        [
            ("actions", "P has shape (4, 0), declared sizes require (4, 0, 4)"),
            ("objectives", "r must have D >= 1 objectives, got shape (4, 3, 0)"),
        ],
        ids=["no-action", "no-objective"],
    )
    def test_empty_mdp_size_exits_2(self, mdp_file, tmp_path, capsys, key, message):
        """An MDP file with no action or no objective exits 2 naming the
        array. JSON writes P of no action as S empty lists, which the file's
        own shape check refuses. r of no objective has its declared shape,
        and used to build an Mdp on which `solve` died in a numpy reduction
        ("zero-size array to reduction operation maximum which has no
        identity"), naming no input."""
        data = json.loads(mdp_file.read_text())
        data[key] = 0
        if key == "actions":
            data["P"] = data["r"] = [[] for _ in data["mu"]]
        else:
            data["r"] = [[[] for _ in row] for row in data["r"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("solve", str(bad), "-o", str(tmp_path / "front.json")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "front.json").exists()

    def test_whole_number_floats_are_read_as_ints(self, mdp_file, tmp_path):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        data = json.loads(front.read_text())
        want = front_from_dict(data)
        for v in data["vertices"]:
            v["actions"] = [float(a) for a in v["actions"]]
        for f in data["faces"]:
            f["vertex_ids"] = [float(i) for i in f["vertex_ids"]]
        got = front_from_dict(data)
        for a, b in zip(got.vertices, want.vertices):
            assert a.policy.dtype == np.int64 and a.policy.tolist() == b.policy.tolist()
        assert [f.vertex_ids for f in got.faces] == [f.vertex_ids for f in want.faces]
        assert all(type(i) is int for f in got.faces for i in f.vertex_ids)
        mdp = json.loads(mdp_file.read_text())
        mdp["states"] = float(mdp["states"])
        assert mdp_from_dict(mdp).num_states == 4

    def test_zero_samples_checks_vertices_only(self, mdp_file, tmp_path, capsys):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        capsys.readouterr()
        assert run("verify", str(mdp_file), str(front), "--samples", "0", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["face_checks"]
        assert {c["n_samples"] for c in report["face_checks"]} == {0}


class TestBench:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("bench", "--states", "3", "--actions", "3,4",
                   "--objectives", "2", "--seeds", "1", "-o", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "states,actions,objectives,seed,solver,vertices,faces,seconds"
        assert len(lines) == 1 + 4

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--states", "0"], "error: num_states must be an int >= 1, got 0"),
            (["--actions", "2,0"], "error: num_actions must be an int >= 1, got 0"),
            (["--gamma", "1.5"], "invalid: gamma 1.5 outside [0, 1)"),
            # Both used to write a CSV of the header alone and exit 0.
            (["--seeds", "0"], "error: --seeds must be an int >= 1, got 0"),
            (["--seeds", "-1"], "error: --seeds must be an int >= 1, got -1"),
            # int()'s "invalid literal for int() with base 10" named no flag.
            (["--states", "x"], "error: --states must be comma-separated ints, got 'x'"),
            (["--actions", "2,,3"], "error: --actions must be comma-separated ints, got '2,,3'"),
        ],
    )
    def test_bad_instance_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bench.csv"
        argv = ["--states", "3", "--actions", "2", "--objectives", "2", "--seeds", "1"]
        assert run("bench", *argv, *flags, "-o", str(out)) == 2
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    def test_cap_exits_4(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--states", "3", "--actions", "2", "--objectives", "2",
                   "--seeds", "1", "--cap", "4", "-o", str(out)) == 4
        assert capsys.readouterr().err.strip() == (
            "error: enumeration needs 8 policies, above the cap of 4"
        )
        assert not out.exists()


class TestExport:
    def test_csv_and_off(self, mdp_file, tmp_path):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        csv_path = tmp_path / "front.csv"
        assert run("export", str(front), "--format", "csv", "-o", str(csv_path)) == 0
        header = csv_path.read_text().splitlines()
        assert any(l.startswith("id,") for l in header)
        off_path = tmp_path / "front.off"
        assert run("export", str(front), "--format", "off", "-o", str(off_path)) == 0
        body = [l for l in off_path.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "OFF"

    def test_off_rejected_for_other_dimensions(self, tmp_path, capsys):
        path = tmp_path / "m4.json"
        run("gen", "random", "--states", "3", "--objectives", "4", "-o", str(path))
        front = tmp_path / "f4.json"
        run("solve", str(path), "-o", str(front))
        assert run("export", str(front), "--format", "off",
                   "-o", str(tmp_path / "f.off")) == 2
        assert "3 objectives" in capsys.readouterr().err


class TestNoThreadKnobs:
    """Every sweep runs on the calling thread, so no flag or variable sets
    a thread count."""

    @pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
    def test_no_threads_flag(self, mdp_file, tmp_path, capsys, command):
        front = tmp_path / "front.json"
        assert run("solve", str(mdp_file), "-o", str(front)) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = [str(front)] if command == "verify" else ["-o", str(out)]
        with pytest.raises(SystemExit) as exc:
            run(command, str(mdp_file), *argv, "--threads", "1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "junk"])
    @pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
    def test_threads_variable_is_not_read(self, mdp_file, tmp_path, capsys, monkeypatch, command, value):
        """MOPF_THREADS=0 or junk used to exit 2; now it changes nothing."""
        front = tmp_path / "front.json"
        assert run("solve", str(mdp_file), "-o", str(front)) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = [str(front)] if command == "verify" else ["-o", str(out)]
        outputs = []
        for env in (None, value):
            if env is not None:
                monkeypatch.setenv("MOPF_THREADS", env)
            code = run(command, str(mdp_file), *argv)
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            stdout = re.sub(r"wall_time_s=\S+", "", capsys.readouterr().out)
            outputs.append((code, stdout, written))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]


class TestSerializeRoundTrips:
    def test_mdp_bit_exact(self):
        m = gen_random_mdp(3, 4, 3, 2)
        again = mdp_from_dict(json.loads(json.dumps(mdp_to_dict(m))))
        assert np.array_equal(again.P, m.P)
        assert np.array_equal(again.r, m.r)
        assert np.array_equal(again.mu, m.mu)
        assert again.gamma == m.gamma

    def test_front_bit_exact(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        again = front_from_dict(json.loads(json.dumps(front_to_dict(front))))
        assert len(again.vertices) == len(front.vertices)
        for va, vb in zip(again.vertices, front.vertices):
            assert np.array_equal(va.policy, vb.policy)
            assert np.array_equal(va.ret, vb.ret)
            assert len(va.co_policies) == len(vb.co_policies)
        for fa, fb in zip(again.faces, front.faces):
            assert fa.vertex_ids == fb.vertex_ids
            assert fa.dim == fb.dim
            assert np.array_equal(fa.normals, fb.normals)
            assert np.array_equal(fa.alpha, fb.alpha)
            assert fa.t_star == fb.t_star
        assert again.return_scale == front.return_scale
        assert again.stats.warnings == front.stats.warnings

    def test_face_work_counts_not_serialized(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        assert front.stats.lps_solved > 0
        text = dump_json(front_to_dict(front))
        assert front.stats.vertex_scans > 0
        names = ("lps_solved", "lps_screened", "vertex_scans")
        for name in names:
            assert name not in text
            setattr(front.stats, name, getattr(front.stats, name) + 7)
        assert dump_json(front_to_dict(front)) == text
        again = front_from_dict(json.loads(text)).stats
        assert [getattr(again, name) for name in names] == [0, 0, 0]

    def test_wall_time_not_serialized(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        payload = front_to_dict(front)
        assert "wall_time" not in json.dumps(payload)


class TestBadTolerances:
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("flag", ["--eps-equal", "--eps-geom", "--eps-pos"])
    def test_no_eps_flags(self, mdp_file, tmp_path, capsys, command, flag):
        """The geometry's tolerances are fixed, so there is no flag to set."""
        out = tmp_path / "front.json"
        with pytest.raises(SystemExit) as exc:
            run(command, str(mdp_file), "-o", str(out), flag, "1e-7")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1e-7" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_and_verify_exit_2(self, mdp_file, tmp_path, capsys):
        front = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(front))
        capsys.readouterr()
        assert run("compare", str(front), str(front), "--tol", "nan") == 2
        assert capsys.readouterr().err.startswith("error: tol must be a finite number >= 0")
        assert run("verify", str(mdp_file), str(front), "--tol", "-1") == 2
        assert capsys.readouterr().err.startswith("error: tol must be a finite number >= 0")


class TestOffFormat:
    def test_single_vertex_front(self):
        base = gen_random_mdp(4, 3, 2, 1)
        m = Mdp(P=base.P, r=np.repeat(base.r, 3, axis=2), gamma=base.gamma, mu=base.mu)
        front = brute_force_front(m)
        body = front_to_off(front).splitlines()
        assert body[0] == "OFF"
        assert body[1].split() == ["1", "0", "0"]

    def test_faces_triangulated_as_fans(self, mdp433):
        front = search(mdp433, SearchConfig(seed=0))
        body = [
            l for l in front_to_off(front).splitlines() if not l.startswith("#")
        ]
        n_v, n_f, _ = (int(x) for x in body[1].split())
        assert n_v == len(front.vertices)
        expected = sum(
            len(f.vertex_ids) - 2 for f in front.faces if f.dim == 2
        )
        assert n_f == expected
        tri_lines = body[2 + n_v :]
        assert len(tri_lines) == n_f
        assert all(l.split()[0] == "3" for l in tri_lines)

    def test_wrong_dimension_rejected(self):
        m = gen_random_mdp(0, 3, 3, 2)
        front = search(m, SearchConfig(seed=0))
        with pytest.raises(ValueError):
            front_to_off(front)


def test_front_csv_lists_policies(mdp433):
    front = search(mdp433, SearchConfig(seed=0))
    lines = [
        l for l in front_to_csv(front).splitlines() if not l.startswith("#")
    ]
    assert len(lines) == 1 + len(front.vertices)
    assert lines[0].startswith("id,")
    assert lines[0].count("action_") == mdp433.num_states


def test_sha256_known_value():
    assert sha256_hex(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


class TestErrorTable:
    """Every command's errors end in one stderr line and an exit code."""

    @pytest.mark.parametrize("command", ["gen", "solve", "oracle", "bench", "export"])
    def test_unwritable_output_exits_2(self, mdp_file, tmp_path, capsys, command):
        front = tmp_path / "front.json"
        assert run("solve", str(mdp_file), "-o", str(front)) == 0
        capsys.readouterr()
        out = tmp_path / "no-such-dir" / "out"
        argv = {
            "gen": ["random"],
            "solve": [str(mdp_file)],
            "oracle": [str(mdp_file)],
            "bench": ["--states", "2", "--actions", "2", "--objectives", "2", "--seeds", "1"],
            "export": [str(front)],
        }[command]
        assert run(command, *argv, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert err.count("\n") == 1

    def test_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run("compare", str(missing), str(missing)) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")

    @staticmethod
    def module_cli(*argv):
        src = str(Path(momdp_pareto.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-m", "momdp_pareto.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_module_entry_point_exit_codes(self, tmp_path):
        big = tmp_path / "big.json"
        assert run("gen", "random", "--states", "5", "--actions", "5", "-o", str(big)) == 0
        proc = self.module_cli("oracle", str(big), "--cap", "100", "-o", str(tmp_path / "o.json"))
        assert proc.returncode == 4
        assert proc.stderr == "error: enumeration needs 3125 policies, above the cap of 100\n"
        proc = self.module_cli("solve", str(big), "-o", str(tmp_path / "no-such-dir" / "f.json"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: [Errno 2] No such file or directory")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestReturnLengths:
    """Front files whose returns do not fit the MDP or each other. verify
    used to die with an IndexError traceback on returns one objective
    short, verify and compare to print numpy's "inhomogeneous shape" on one
    short return, and compare to print a broadcast error on fronts of
    different objective counts; none named a vertex."""

    def write_front(self, mdp_file, tmp_path, edit):
        good = tmp_path / "front.json"
        run("solve", str(mdp_file), "-o", str(good))
        data = json.loads(good.read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        return good, bad

    def test_verify_returns_short_of_the_mdp_objectives(self, mdp_file, tmp_path, capsys):
        def drop_last(data):
            for v in data["vertices"]:
                del v["return"][-1]

        _, bad = self.write_front(mdp_file, tmp_path, drop_last)
        capsys.readouterr()
        assert run("verify", str(mdp_file), str(bad)) == 2
        assert capsys.readouterr().err == (
            "error: vertex 0: return has 2 entries, not 3\n"
        )

    @pytest.mark.parametrize("command", ["verify", "compare"])
    def test_one_short_return(self, mdp_file, tmp_path, capsys, command):
        good, bad = self.write_front(
            mdp_file, tmp_path, lambda data: data["vertices"][1]["return"].pop()
        )
        capsys.readouterr()
        first = mdp_file if command == "verify" else good
        assert run(command, str(first), str(bad)) == 2
        assert capsys.readouterr().err == (
            "error: malformed front payload: vertex 1: return has 2 entries, vertex 0's 3\n"
        )

    def test_compare_fronts_of_different_objective_counts(self, mdp_file, tmp_path, capsys):
        def drop_last(data):
            for v in data["vertices"]:
                del v["return"][-1]

        good, bad = self.write_front(mdp_file, tmp_path, drop_last)
        capsys.readouterr()
        assert run("compare", str(good), str(bad)) == 2
        assert capsys.readouterr().err == (
            "error: fronts have returns of 3 and 2 objectives\n"
        )
