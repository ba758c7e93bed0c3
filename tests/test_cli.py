import csv
import json

import pytest
from conftest import solver_caches, wide_second_group_profile

import mewvote.bench as bench
from mewvote import GenSpec, ParseError, ValidationError, generate, save_profile, serialize_profile
from mewvote.cli import main
from mewvote.rep import _uniform_poset_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mew_table_output(capsys, data_dir):
    code, out, _ = run_cli(capsys, "mew", "--profile", str(data_dir / "fig1.profile"),
                           "--rule", "plurality")
    assert code == 0
    assert "winners: b" in out
    assert "expected_score[b] = 0.8" in out


def test_mew_json_output(capsys, data_dir):
    code, out, _ = run_cli(capsys, "mew", "--profile", str(data_dir / "fig1.profile"),
                           "--rule", "borda", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["winners", "expected_scores", "bounds", "pruned", "stats"]
    assert doc["winners"] == ["b"]
    assert doc["expected_scores"]["b"] == pytest.approx(2.8, abs=1e-12)
    assert set(doc["stats"]) == {"voters", "groups", "prunings", "seconds", "workers"}


def test_mpw_output(capsys, data_dir):
    code, out, _ = run_cli(capsys, "mpw", "--profile", str(data_dir / "fig1.profile"),
                           "--rule", "plurality")
    assert code == 0
    assert "winners: a" in out
    assert "win_prob[a] = 0.7" in out


def test_oracle_output(capsys, data_dir):
    code, out, _ = run_cli(capsys, "oracle", "--profile", str(data_dir / "fig1.profile"),
                           "--rule", "plurality", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_scores"]["b"] == pytest.approx(0.8, abs=1e-12)
    assert doc["win_probs"]["a"] == pytest.approx(0.7, abs=1e-12)


def test_gen_then_solve_with_and_without_pruning(capsys, tmp_path):
    out_file = tmp_path / "gen.profile"
    code, _, _ = run_cli(capsys, "gen", "poset", "--m", "7", "--n", "60",
                         "--phi", "0.5", "--p-max", "0.2", "--seed", "7",
                         "--out", str(out_file))
    assert code == 0 and out_file.exists()
    _, out_default, _ = run_cli(capsys, "mew", "--profile", str(out_file),
                                "--rule", "plurality")
    _, out_raw, _ = run_cli(capsys, "mew", "--profile", str(out_file),
                            "--rule", "plurality", "--no-pruning", "--no-grouping")
    line = next(l for l in out_default.splitlines() if l.startswith("winners:"))
    line_raw = next(l for l in out_raw.splitlines() if l.startswith("winners:"))
    assert line == line_raw


def test_parallel_flag(capsys, data_dir):
    code, out, _ = run_cli(capsys, "mew", "--profile", str(data_dir / "fig1.profile"),
                           "--rule", "plurality", "--parallel", "2")
    assert code == 0
    assert "winners: b" in out


def test_negative_parallel_count_is_an_input_error(capsys, data_dir):
    code, out, err = run_cli(capsys, "mew", "--profile", str(data_dir / "fig1.profile"),
                             "--rule", "plurality", "--parallel", "-3")
    assert code == 1 and out == ""
    assert "workers must be >= 1, got -3" in err


def test_parallel_with_no_grouping_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "three.profile"
    code, _, _ = run_cli(capsys, "gen", "mallows", "--m", "4", "--n", "3", "--seed", "0",
                         "--out", str(path))
    assert code == 0
    code, out, err = run_cli(capsys, "mew", "--profile", str(path), "--rule", "plurality",
                             "--parallel", "2", "--no-grouping")
    assert (code, out) == (1, "")
    assert err == "error: --parallel groups identical voters; drop --no-grouping\n"


def test_parallel_child_resource_cap_exit_code(capsys, tmp_path):
    path = tmp_path / "wide.profile"
    save_profile(wide_second_group_profile(), path)
    code, _, err = run_cli(capsys, "mew", "--profile", str(path), "--rule", "borda",
                           "--parallel", "2")
    assert code == 2
    assert "cover width 7" in err


def test_custom_rule_and_k_approval(capsys, data_dir):
    code, out, _ = run_cli(capsys, "mew", "--profile", str(data_dir / "fig1.profile"),
                           "--rule", "k-approval:2")
    assert code == 0
    code, out, _ = run_cli(capsys, "mew", "--profile", str(data_dir / "fig1.profile"),
                           "--rule", "custom:2,1,0")
    assert code == 0


def test_bench_csv(capsys, tmp_path):
    spec = {"runs": [
        {"kind": "chain", "m": 5, "n": 20, "k": 3, "rule": "plurality", "seed": 1},
        {"kind": "mallows", "m": 5, "n": 10, "phi": 0.5, "rule": "borda", "seed": 2},
        {"kind": "cover_width", "m": 6, "n": 2, "k": 3},
    ]}
    spec_file = tmp_path / "bench.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "bench.csv"
    code, _, _ = run_cli(capsys, "bench", "--spec", str(spec_file),
                         "--repeat", "2", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].split(",")[:6] == ["kind", "algo", "m", "n", "rule", "pruning"]
    assert len(lines) == 4
    rows = list(csv.DictReader(lines))
    assert tuple(rows[0]) == bench.CSV_COLUMNS and "seed" not in rows[0]
    assert [(row["kind"], row["k"]) for row in rows] == [
        ("chain", "3"), ("mallows", ""), ("cover_width", "3")]


def test_bench_repeats_start_with_an_empty_table_cache(monkeypatch):
    sizes, all_sizes = [], []
    real_mew = bench.mew

    def spy(*args, **kwargs):
        sizes.append(_uniform_poset_table.cache_info().currsize)
        # every other solver, preference and model cache is cold too
        all_sizes.append({cache.__wrapped__.__name__: cache.cache_info().currsize
                          for cache in solver_caches()})
        return real_mew(*args, **kwargs)

    monkeypatch.setattr(bench, "mew", spy)
    bench.run_bench([bench.BenchRun(kind="poset", m=6, n=10, seed=3)], repeat=3)
    assert sizes == [0, 0, 0]
    assert [set(s.values()) for s in all_sizes] == [{0}] * 3, all_sizes


def test_input_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "mew", "--profile", str(tmp_path / "missing.profile"),
                           "--rule", "plurality")
    assert code == 1
    assert "error" in err
    bad = tmp_path / "bad.profile"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "mew", "--profile", str(bad), "--rule", "plurality")
    assert code == 1


@pytest.mark.parametrize("pi", [[[1.0], [0.5, 0.5]],
                                [[1.0], [0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]])
def test_a_model_with_the_wrong_row_count_is_an_input_error(capsys, tmp_path, pi):
    doc = {"format": 1, "candidates": ["a", "b", "c"],
           "voters": [{"type": "rim", "sigma": ["a", "b", "c"], "pi": pi}]}
    path = tmp_path / "rows.profile"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "mew", "--profile", str(path), "--rule", "plurality")
    assert code == 1
    assert err == f"error: voter 0: expected 3 rows, one per item, got {len(pi)}\n"


def test_malformed_profile_exit_code(capsys, tmp_path):
    doc = {"format": 1, "candidates": ["a", "b", "c"],
           "voters": [{"type": "mallows", "sigma": ["a", "b", "c"], "phi": "abc"}]}
    path = tmp_path / "bad_phi.profile"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "mew", "--profile", str(path), "--rule", "plurality")
    assert code == 1
    assert err.startswith("error: voter 0:")


def test_malformed_bench_spec_exit_code(capsys, tmp_path):
    spec_file = tmp_path / "bench.json"
    for spec in ({"runs": [{"kind": "poset", "bogus": 1}]}, {"kinds": []}, [3],
                 [{"kind": "cover_width", "m": 6, "n": 2}]):  # a width is required
        spec_file.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec_file), "--out", "-")
        assert code == 1
        assert err.startswith("error: ")
    spec_file.write_text(json.dumps({"runs": [{"kind": "poset", "bogus": 1}]}))
    with pytest.raises(ParseError, match="run 0"):
        bench.parse_bench_spec(spec_file.read_text())


def test_bench_spec_fields_are_checked_against_their_types(capsys, tmp_path):
    spec_file = tmp_path / "bench.json"
    bad = [({"pruning": "no"}, "'pruning' must be bool"), ({"m": "4"}, "'m' must be int"),
           ({"n": True}, "'n' must be int"), ({"k": 2.5}, "'k' must be int or null"),
           ({"phi": "0.5"}, "'phi' must be float or int"), ({"kind": 3}, "'kind' must be str"),
           # and the values the harness would not run as given
           ({"algo": "mpww"}, "'algo' must be 'mew' or 'mpw'"),
           ({"workers": -2}, "'workers' must be >= 0")]
    for fields, message in bad:
        spec_file.write_text(json.dumps([{"kind": "chain", "k": 2}, {"kind": "chain", **fields}]))
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec_file), "--out", "-")
        assert (code, out) == (1, ""), fields
        assert err.startswith(f"error: run 1: field {message}, got "), err
    # a cover width is the "cover_width" kind's k, not a field of its own
    spec_file.write_text(json.dumps([{"kind": "chain", "k": 2}, {"kind": "poset", "cw": 3}]))
    code, out, err = run_cli(capsys, "bench", "--spec", str(spec_file), "--out", "-")
    assert (code, out) == (1, "")
    assert err.startswith("error: run 1: malformed entry"), err
    # an int is fine for a float, and null for an optional int
    runs = bench.parse_bench_spec(json.dumps([{"kind": "poset", "phi": 1, "k": None}]))
    assert runs == [bench.BenchRun(kind="poset", phi=1, k=None)]


def test_a_bench_run_is_checked_where_it_is_built(capsys, tmp_path, monkeypatch):
    bad = [({"algo": "bogus"}, "field 'algo' must be 'mew' or 'mpw', got 'bogus'"),
           ({"workers": -3}, "field 'workers' must be >= 0, got -3"),
           ({"pruning": "no"}, "field 'pruning' must be bool, got 'no'"),
           ({"kind": "chain"}, "k must be in [1, m], got None"),
           ({"p_max": 2.0}, "p_max must be in [0, 1], got 2.0"),
           ({"rule": "k-approval:10"}, "k must be in [1, 9], got 10")]
    for fields, message in bad:
        with pytest.raises(ValidationError) as info:
            bench.BenchRun(**{"kind": "poset", **fields})
        assert str(info.value) == message
    bench.BenchRun(kind="cover_width", k=3)
    # so a spec whose later run is bad times none of the earlier ones, and writes nothing
    monkeypatch.setattr(bench, "time_run", lambda run, profile: pytest.fail("a run was timed"))
    spec_file, csv_file = tmp_path / "bench.json", tmp_path / "out.csv"
    spec_file.write_text(json.dumps([{"kind": "poset", "m": 4, "n": 2},
                                     {"kind": "poset", "p_max": 2.0}]))
    code, out, err = run_cli(capsys, "bench", "--spec", str(spec_file), "--out", str(csv_file))
    assert (code, out, err) == (1, "", "error: run 1: p_max must be in [0, 1], got 2.0\n")
    assert not csv_file.exists()


@pytest.mark.parametrize("k, message", [(None, "cover width must be an integer, got None"),
                                        (0, "cover width must be >= 1, got 0"),
                                        (6, "cover width must be <= 5, got 6")])
def test_a_cover_width_run_is_checked_where_it_is_built(capsys, tmp_path, monkeypatch,
                                                        k, message):
    with pytest.raises(ValidationError, match=message):
        bench.BenchRun(kind="cover_width", m=6, k=k)
    monkeypatch.setattr(bench, "time_run", lambda run, profile: pytest.fail("a run was timed"))
    spec_file, csv_file = tmp_path / "bench.json", tmp_path / "out.csv"
    spec_file.write_text(json.dumps([{"kind": "poset", "m": 4, "n": 2},
                                     {"kind": "cover_width", "m": 6, "k": k}]))
    code, out, err = run_cli(capsys, "bench", "--spec", str(spec_file), "--out", str(csv_file))
    assert (code, out, err) == (1, "", f"error: run 1: {message}\n")
    assert not csv_file.exists()


def test_gen_passes_only_the_options_given(capsys, tmp_path):
    out_file = tmp_path / "gen.profile"
    code, _, _ = run_cli(capsys, "gen", "mallows_tr", "--m", "6", "--n", "4", "--t", "2",
                         "--seed", "3", "--out", str(out_file))
    assert code == 0
    expected = generate(GenSpec(kind="mallows_tr", m=6, n=4, t=2, seed=3))
    assert out_file.read_text() == serialize_profile(expected)
    for args, message in [(("poset", "--seed", "-1"), "seed must be >= 0, got -1"),
                          (("chain", "--seed", "1"), "k must be in [1, m], got None")]:
        code, out, err = run_cli(capsys, "gen", *args, "--m", "5", "--n", "3",
                                 "--out", str(out_file))
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_bench_refuses_fewer_than_one_repeat(capsys, tmp_path):
    spec_file = tmp_path / "bench.json"
    spec_file.write_text(json.dumps([{"kind": "chain", "m": 4, "n": 3, "k": 2}]))
    for repeat in ("0", "-1"):
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec_file), "--out", "-",
                                 "--repeat", repeat)
        assert (code, out) == (1, "")
        assert err == f"error: repeat must be >= 1, got {repeat}\n"


def test_unsupported_voter_exit_code(capsys, tmp_path):
    doc = {"format": 1, "candidates": ["a", "b", "c"],
           "voters": [{"type": "combined",
                       "model": {"type": "rsm", "sigma": ["a", "b", "c"],
                                 "pi": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]]},
                       "observation": {"type": "poset", "pairs": [["a", "b"]]}}]}
    path = tmp_path / "rsm_obs.profile"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "mew", "--profile", str(path), "--rule", "plurality")
    assert code == 1
    assert "error" in err


def test_resource_cap_exit_code(capsys, tmp_path):
    import mewvote as mv

    prof = mv.generate(mv.GenSpec(kind="poset", m=12, n=3, phi=0.5, p_max=0.3, seed=1))
    path = tmp_path / "big.profile"
    mv.save_profile(prof, path)
    code, _, err = run_cli(capsys, "oracle", "--profile", str(path), "--rule", "plurality")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("enum_cap, argv, message", [
    ("abc", ("oracle",), "MEW_ENUM_CAP must be a positive integer, got 'abc'"),
    ("-1", ("oracle",), "MEW_ENUM_CAP must be a positive integer, got '-1'"),
    (None, ("mpw", "--state-cap", "0"), "state_cap must be >= 1, got 0"),
], ids=["enum-cap-abc", "enum-cap-negative", "state-cap-zero"])
def test_a_cap_that_is_not_a_positive_integer_is_an_input_error(
        capsys, data_dir, monkeypatch, enum_cap, argv, message):
    if enum_cap is not None:
        monkeypatch.setenv("MEW_ENUM_CAP", enum_cap)
    code, out, err = run_cli(capsys, *argv, "--profile", str(data_dir / "fig1.profile"),
                             "--rule", "plurality")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_bad_rule_exit_code(capsys, data_dir):
    code, _, _ = run_cli(capsys, "mew", "--profile", str(data_dir / "fig1.profile"),
                         "--rule", "k-approval:9")
    assert code == 1
