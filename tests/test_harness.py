import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from lrclab import cli, harness
from lrclab.corpusio import read_token_file
from lrclab.genmodels import MODEL_PARAMS, ModelParams, generate
from lrclab.harness import (
    CellAggregate,
    SweepRecord,
    SweepResult,
    SweepSpec,
    emit_figure_data,
    run_analysis,
    run_sweep,
    write_sweep_result,
)
from lrclab.lrcstats import analyze
from lrclab.seqcore import DataError

ROMEO = "Oh Romeo Romeo wherefore art thou Romeo"

TINY_SWEEP = dict(
    model="conjunct",
    a_values=(0.68,),
    b_values=(0.8,),
    replicates=2,
    length=20000,
    base_seed=100,
)


class TestSweepSpec:
    def test_json_round_trip(self, tmp_path):
        spec = SweepSpec(**TINY_SWEEP)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert SweepSpec.from_json(path) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(DataError, match="unknown sweep spec fields"):
            SweepSpec.from_dict({"model": "simon", "replicates": 1, "length": 10,
                                 "base_seed": 0, "alpha_values": [0.1], "bogus": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(DataError, match="missing"):
            SweepSpec.from_dict({"model": "simon"})

    def test_simon_takes_alpha_values(self):
        with pytest.raises(DataError):
            SweepSpec(model="simon", replicates=1, length=10, base_seed=0,
                      a_values=(0.1,), b_values=(0.1,))

    @pytest.mark.parametrize("axes", [
        dict(model="simon", alpha_values=(0.1, 0.1)),
        dict(model="conjunct", a_values=(0.68, 0.68), b_values=(0.8,)),
        dict(model="pitman_yor", a_values=(0.0, 0.68), b_values=(0.8, 0.8)),
        dict(model="conjunct", a_values=(0, 0.0), b_values=(0.8,)),
    ])
    def test_repeated_grid_value_rejected(self, axes):
        with pytest.raises(DataError, match="repeated values"):
            SweepSpec(replicates=2, length=10, base_seed=0, **axes)

    def test_rarity_divisor_below_two_rejected(self):
        with pytest.raises(DataError, match="rarity divisor"):
            SweepSpec(model="simon", replicates=1, length=10, base_seed=0, n=1, alpha_values=(0.1,))

    @pytest.mark.parametrize("payload", [[0.1], 0.1, "simon", None])
    def test_non_object_rejected(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="JSON object"):
            SweepSpec.from_json(path)

    @pytest.mark.parametrize("field, value", [
        ("length", "abc"),
        ("replicates", [1]),
        ("n", None),
        ("alpha_values", 0.1),
        ("alpha_values", "0.1"),
        ("alpha_values", ["x"]),
        ("replicates", 2.7),
        ("length", True),
        ("base_seed", "5"),
        ("b_values", [True]),
        ("alpha_values", [10**400]),
    ])
    def test_unconvertible_field_rejected(self, field, value):
        d = {"model": "simon", "replicates": 1, "length": 10, "base_seed": 0, "alpha_values": [0.1]}
        d[field] = value
        with pytest.raises(DataError, match=f"field '{field}'"):
            SweepSpec.from_dict(d)

    def test_integral_numbers_convert(self):
        spec = SweepSpec.from_dict({"model": "simon", "replicates": 2.0, "length": 10,
                                    "base_seed": 2**63, "alpha_values": [0.1]})
        assert (spec.replicates, spec.base_seed) == (2, 2**63)
        assert type(spec.replicates) is int

    def test_non_utf8_spec_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"model": "simon\xff"}')
        with pytest.raises(DataError, match="cannot read sweep spec"):
            SweepSpec.from_json(path)

    @pytest.mark.parametrize("grid", [
        dict(model="simon", alpha_values=(0.1, 0.3, 1.5)),
        dict(model="conjunct", a_values=(0.5,), b_values=(0.5, float("inf"))),
        dict(model="pitman_yor", a_values=(0.5,), b_values=(float("nan"),)),
        dict(model="simon", alpha_values=(0.1,), base_seed=2**64 - 1),
    ])
    def test_every_cell_checked(self, grid):
        with pytest.raises(DataError, match="parameter out of range"):
            SweepSpec(**{"replicates": 2, "length": 10, "base_seed": 0, **grid})

    def test_cells_sorted(self):
        spec = SweepSpec(model="pitman_yor", replicates=1, length=10, base_seed=0,
                         a_values=(0.5, 0.1), b_values=(1.0, 0.2))
        assert spec.cells() == [(0.1, 0.2), (0.1, 1.0), (0.5, 0.2), (0.5, 1.0)]


@pytest.mark.parametrize("model", sorted(MODEL_PARAMS))
def test_model_params_table_agrees(tmp_path, model):
    # The parameter names, the sweep cells and the CSV cell columns all
    # come from MODEL_PARAMS, in the same order.
    names = MODEL_PARAMS[model]
    params = ModelParams(model=model, length=10, seed=0, **{p: 0.5 for p in names})
    assert tuple(params.to_dict()) == names
    spec = SweepSpec(model=model, replicates=1, length=10, base_seed=0,
                     **{f"{p}_values": (0.5, 0.25) for p in names})
    assert {len(cell) for cell in spec.cells()} == {len(names)}
    assert len(spec.cells()) == 2 ** len(names)
    write_sweep_result(SweepResult(spec=spec, records=(), aggregates=()), tmp_path)
    header = (tmp_path / "records.csv").read_text().split("\n")[0].split(",")
    assert tuple(header[: len(names)]) == names
    assert header[len(names)] == "replicate"


class TestRunSweep:
    def test_record_count_and_order(self):
        spec = SweepSpec(**TINY_SWEEP)
        result = run_sweep(spec)
        assert len(result.records) == 2
        assert [r.replicate for r in result.records] == [0, 1]
        assert [r.seed for r in result.records] == [100, 101]
        assert len(result.aggregates) == 1

    def test_composition_identity(self):
        spec = SweepSpec(**TINY_SWEEP)
        result = run_sweep(spec)
        params = ModelParams(model="conjunct", length=20000, seed=100, a=0.68, b=0.8)
        report = analyze(generate(params), n=16)
        assert result.records[0].gamma == report.gamma
        assert result.records[0].gamma_fit_points == report.gamma_fit.n_points_used
        assert result.records[0].heaps_zeta == report.heaps_exponent
        assert result.records[0].lrc_verdict == report.lrc_verdict

    def test_aggregates_recomputable(self):
        spec = SweepSpec(**TINY_SWEEP)
        result = run_sweep(spec)
        agg = result.aggregates[0]
        gammas = [r.gamma for r in result.records]
        assert agg.mean_gamma == pytest.approx(np.mean(gammas))
        assert agg.sd_gamma == pytest.approx(np.std(gammas))
        assert agg.lrc_fraction == sum(1 for r in result.records if r.lrc_verdict) / 2

    def test_degenerate_cell_recorded_not_raised(self):
        spec = SweepSpec(model="conjunct", a_values=(0.0,), b_values=(0.0,),
                         replicates=1, length=5000, base_seed=0)
        result = run_sweep(spec)
        rec = result.records[0]
        assert rec.error == "degenerate series"
        assert rec.gamma is None
        assert result.aggregates[0].lrc_fraction == 0.0

    def test_pool_no_larger_than_job_list(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        spec = SweepSpec(model="conjunct", a_values=(0.68,), b_values=(0.8,),
                         replicates=2, length=2000, base_seed=1)
        assert len(run_sweep(spec, workers=64).records) == 2
        assert sizes == [2]

    def test_parallel_matches_serial(self, tmp_path):
        spec = SweepSpec(model="conjunct", a_values=(0.68,), b_values=(0.8,),
                         replicates=2, length=8000, base_seed=7)
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        d1, d2 = tmp_path / "serial", tmp_path / "parallel"
        write_sweep_result(serial, d1)
        write_sweep_result(parallel, d2)
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
        assert (d1 / "aggregates.csv").read_bytes() == (d2 / "aggregates.csv").read_bytes()

    def test_byte_identical_rerun(self, tmp_path):
        spec = SweepSpec(**TINY_SWEEP)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_sweep_result(run_sweep(spec), d1)
        write_sweep_result(run_sweep(spec), d2)
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()

    @pytest.mark.parametrize("model, axes, cell_text", [
        ("simon", dict(alpha_values=(0.2,)), "0.2"),
        ("conjunct", dict(a_values=(0, 0.68), b_values=(0.8,)), "0,0.8"),
    ])
    def test_table_bytes(self, tmp_path, model, axes, cell_text):
        # The column lists are spelled out, so reordering a field of
        # SweepRecord or CellAggregate fails here instead of changing the CSVs.
        # A grid value given as the int 0 stays 0, not 0.0.
        spec = SweepSpec(model=model, replicates=2, length=10, base_seed=5, **axes)
        cell = spec.cells()[0]
        records = (
            SweepRecord(cell=cell, replicate=0, seed=5, gamma=0.25, gamma_fit_error=0.5,
                        gamma_fit_points=28, heaps_zeta=0.75, lrc_verdict=True, acf_points=30,
                        error=None),
            SweepRecord(cell=cell, replicate=1, seed=6, lrc_verdict=False, error=""),
        )
        aggregates = (CellAggregate(cell=cell, replicates=2, mean_gamma=0.25, sd_gamma=None,
                                    lrc_fraction=0.5, mean_fit_error=None, pooled_fit_error=1.5),)
        write_sweep_result(SweepResult(spec=spec, records=records, aggregates=aggregates), tmp_path)
        cell_cols = "alpha" if model == "simon" else "a,b"
        assert (tmp_path / "records.csv").read_text() == (
            f"{cell_cols},replicate,seed,gamma,gamma_fit_error,gamma_fit_points,heaps_zeta,lrc_verdict,"
            "acf_points,error\n"
            f"{cell_text},0,5,0.25,0.5,28,0.75,true,30,\n"
            f"{cell_text},1,6,,,,,false,,\n"
        )
        assert (tmp_path / "aggregates.csv").read_text() == (
            f"{cell_cols},replicates,mean_gamma,sd_gamma,lrc_fraction,mean_fit_error,pooled_fit_error\n"
            f"{cell_text},2,0.25,,0.5,,1.5\n"
        )

    def test_pooled_fit_error_counts_fitted_points(self):
        # Each run's error is sqrt(SSE) / (its fitted points); the runs leave
        # out different shares of their ACF points, so pooling over the ACF
        # point counts would give another value.
        cell = (0.68, 0.8)
        records = [
            SweepRecord(cell=cell, replicate=0, seed=1, gamma=0.2, gamma_fit_error=0.01,
                        gamma_fit_points=20, lrc_verdict=True, acf_points=50),
            SweepRecord(cell=cell, replicate=1, seed=2, gamma=0.3, gamma_fit_error=0.02,
                        gamma_fit_points=45, lrc_verdict=True, acf_points=50),
        ]
        agg = harness._aggregate(cell, records)
        sse = (0.01 * 20) ** 2 + (0.02 * 45) ** 2
        assert agg.pooled_fit_error == pytest.approx(np.sqrt(sse) / 65, rel=1e-12)
        assert agg.mean_fit_error == pytest.approx(0.015, rel=1e-12)

    def test_error_column_round_trips_through_csv_reader(self, tmp_path):
        spec = SweepSpec(**TINY_SWEEP)
        message = 'cannot read "w1, w2", giving up'
        records = (
            SweepRecord(cell=(0.68, 0.8), replicate=0, seed=100, error=message),
            SweepRecord(cell=(0.68, 0.8), replicate=1, seed=101, error="degenerate series"),
        )
        write_sweep_result(SweepResult(spec=spec, records=records, aggregates=()), tmp_path)
        text = (tmp_path / "records.csv").read_text()
        assert text.splitlines()[2].endswith(',"degenerate series"')
        with open(tmp_path / "records.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert [row[header.index("error")] for row in rows] == [message, "degenerate series"]
        assert all(len(row) == len(header) for row in rows)


class TestRunAnalysis:
    def test_romeo_forced_rare(self, tmp_path):
        src = tmp_path / "romeo.txt"
        src.write_text(ROMEO.replace(" ", "\n") + "\n")
        out = tmp_path / "out"
        report = run_analysis(src, n=16, out_dir=out, rare_words=["romeo"])
        assert report.intervals.intervals.tolist() == [1, 4]
        assert (out / "intervals.csv").read_text() == "interval\n1\n4\n"
        payload = json.loads((out / "report.json").read_text())
        assert payload["gamma"] is None
        assert payload["m"] == 7
        # a word named twice is one rare type, and the ids come back sorted
        assert run_analysis(src, n=16, rare_words=["romeo", "Romeo"]) == report
        ids = harness.resolve_rare_ids(read_token_file(src), ["thou", "Romeo", "oh", "romeo"])
        assert ids.dtype == np.int64 and ids.tolist() == [0, 1, 4]

    def test_unknown_rare_word(self, tmp_path):
        src = tmp_path / "romeo.txt"
        src.write_text(ROMEO + "\n")
        with pytest.raises(DataError, match="does not occur"):
            run_analysis(src, rare_words=["hamlet"])

    def test_full_run_writes_curves(self, tmp_path, monkeypatch):
        # the curve writers are looked up on the module when they are called,
        # so wrappers set there (as perfbench/spans.py sets them) see every file
        written = []

        def spy(real):
            return lambda curve, path: (written.append(path.name), real(curve, path))

        for fn in ("write_rank_frequency_csv", "write_type_token_csv", "write_intervals_csv", "write_acf_csv"):
            monkeypatch.setattr(harness, fn, spy(getattr(harness, fn)))
        rng = np.random.default_rng(1)
        src = tmp_path / "tokens.txt"
        src.write_text("\n".join(f"w{t}" for t in rng.integers(0, 40, size=20000)) + "\n")
        out = tmp_path / "out"
        report = run_analysis(src, n=16, out_dir=out)
        assert sorted(written) == ["acf.csv", "intervals.csv", "rankfreq.csv", "typetoken.csv"]
        for name in ("report.json", "acf.csv", "rankfreq.csv", "typetoken.csv", "intervals.csv"):
            assert (out / name).exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["lrc_verdict"] == report.lrc_verdict
        assert payload["m_n"] == report.m_n


class TestEmitFigureData:
    @pytest.fixture()
    def analysis_dir(self, tmp_path):
        rng = np.random.default_rng(2)
        src = tmp_path / "tokens.txt"
        src.write_text("\n".join(f"w{t}" for t in rng.integers(0, 40, size=20000)) + "\n")
        out = tmp_path / "analysis"
        run_analysis(src, n=16, out_dir=out)
        return out

    def test_acf_panel_includes_fit(self, analysis_dir, tmp_path):
        out = tmp_path / "fig"
        manifest = emit_figure_data(analysis_dir, "acf", out)
        assert manifest["files"][0] == {"file": "acf.csv", "x": "s", "y": "c"}
        # the figure refits gamma from acf.csv, the one output read back
        report = json.loads((analysis_dir / "report.json").read_text())
        assert report["gamma"] is not None
        assert manifest["fit"]["exponent"] == report["gamma"]
        assert (out / "acf.csv").exists()
        assert json.loads((out / "manifest.json").read_text()) == manifest

    @pytest.mark.parametrize(
        "figure_id,axes", [("acf", ("s", "c")), ("rankfreq", ("rank", "freq")), ("typetoken", ("m", "v"))]
    )
    def test_curve_panel_copies_its_file(self, analysis_dir, tmp_path, figure_id, axes):
        out = tmp_path / "fig"
        manifest = emit_figure_data(analysis_dir, figure_id, out)
        name = f"{figure_id}.csv"
        assert manifest["files"] == [{"file": name, "x": axes[0], "y": axes[1]}]
        assert json.loads((out / "manifest.json").read_text()) == manifest
        assert (out / name).read_bytes() == (analysis_dir / name).read_bytes()

    def test_rankfreq_panel(self, tmp_path):
        src = tmp_path / "tiny.txt"
        src.write_text("a\nb\na\n")
        analysis = tmp_path / "analysis"
        seqreport = run_analysis(src, out_dir=analysis)
        assert list(enumerate(seqreport.rank.frequencies.tolist(), start=1)) == [(1, 2), (2, 1)]
        assert seqreport.acf_skipped == "sequence too short"
        out = tmp_path / "fig"
        emit_figure_data(analysis, "rankfreq", out)
        assert (out / "rankfreq.csv").read_text() == "rank,freq\n1,2\n2,1\n"

    def test_sweep_map(self, tmp_path):
        result = run_sweep(SweepSpec(**TINY_SWEEP))
        sweep_dir = tmp_path / "sweep"
        write_sweep_result(result, sweep_dir)
        out = tmp_path / "fig"
        manifest = emit_figure_data(sweep_dir, "sweep_map", out)
        text = (out / "sweep_map.csv").read_text()
        assert text == f"a,b,lrc_fraction\n0.68,0.8,{result.aggregates[0].lrc_fraction!r}\n"
        assert manifest["files"][0]["value"] == "lrc_fraction"

    def test_sweep_map_simon(self, tmp_path):
        spec = SweepSpec(model="simon", replicates=1, length=10, base_seed=0, alpha_values=(0.3, 0.1))
        aggregates = tuple(
            CellAggregate(cell=cell, replicates=1, mean_gamma=None, sd_gamma=None,
                          lrc_fraction=frac, mean_fit_error=None, pooled_fit_error=None)
            for cell, frac in zip(spec.cells(), (0.0, 1.0))
        )
        sweep_dir = tmp_path / "sweep"
        write_sweep_result(SweepResult(spec=spec, records=(), aggregates=aggregates), sweep_dir)
        out = tmp_path / "fig"
        manifest = emit_figure_data(sweep_dir, "sweep_map", out)
        assert (out / "sweep_map.csv").read_text() == "alpha,lrc_fraction\n0.1,0.0\n0.3,1.0\n"
        assert manifest["files"] == [{"file": "sweep_map.csv", "x": "alpha", "y": "lrc_fraction"}]

    def test_unknown_figure_id(self, analysis_dir, tmp_path):
        with pytest.raises(DataError, match="unknown figure_id"):
            emit_figure_data(analysis_dir, "spectrum", tmp_path / "fig")


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze"])
        assert exc.value.code == 1

    def test_data_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        code = cli.main(["analyze", "--input", str(missing), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "chat-extract"])
    def test_non_utf8_input_exit_code(self, tmp_path, capsys, command):
        src = tmp_path / "latin1.txt"
        src.write_bytes(b"@Begin\n*CHI:\tcaf\xe9 au lait .\n@End\n")
        argv = [command, "--input", str(src), "--out", str(tmp_path / "out")]
        if command == "chat-extract":
            argv += ["--speakers", "CHI"]
        assert cli.main(argv) == 2
        assert str(src) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,message", [
        ("@Begin\n*CHI:\thi .\nstray line\n", "line 3: unclassified line"),
        ("@Begin\n*MOT:\thello there .\n@End\n", "no tokens for speakers"),
    ], ids=["unparsed", "no-tokens"])
    def test_chat_extract_error_names_input(self, tmp_path, capsys, text, message):
        src = tmp_path / "bad.cha"
        src.write_text(text)
        out = tmp_path / "out.txt"
        assert cli.main(["chat-extract", "--input", str(src), "--speakers", "CHI", "--out", str(out)]) == 2
        assert f"lrclab: error: {src}: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [src]

    def test_degenerate_exit_code(self, tmp_path, capsys):
        src = tmp_path / "constant.txt"
        src.write_text("a\n" * 5000)
        code = cli.main(["analyze", "--input", str(src), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "degenerate series" in capsys.readouterr().err

    def test_generate_analyze_round(self, tmp_path, capsys):
        out_file = tmp_path / "seq.txt"
        code = cli.main([
            "generate", "--model", "simon", "--alpha", "0.2",
            "--length", "20000", "--seed", "5", "--out", str(out_file),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "seq.txt.meta.json").read_text())
        assert meta["model"] == "simon"
        assert meta["length"] == 20000
        code = cli.main([
            "analyze", "--input", str(out_file), "--n", "16",
            "--out", str(tmp_path / "analysis"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "analysis" / "report.json").read_text())
        assert payload["m"] == 20000

    def test_generate_requires_model_params(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "generate", "--model", "simon",
                "--length", "100", "--seed", "1", "--out", str(tmp_path / "s.txt"),
            ])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv, foreign", [
        (["--model", "simon", "--alpha", "0.1"], ["--a", "0.5"]),
        (["--model", "py", "--a", "0.5", "--b", "1"], ["--alpha", "0.1"]),
        (["--model", "conjunct", "--a", "0.5", "--b", "1"], ["--vocab", "5"]),
        (["--model", "zipf", "--vocab", "5", "--exponent", "1"], ["--corpus", "CORPUS"]),
        (["--model", "bigram", "--corpus", "CORPUS"], ["--exponent", "1"]),
    ])
    def test_generate_foreign_flag_usage_error(self, tmp_path, capsys, argv, foreign):
        # the model's own flags succeed; with one more flag nothing is written
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b a c\n")
        model, flags = argv[1], argv[2::2]
        argv, foreign = ([str(corpus) if a == "CORPUS" else a for a in v] for v in (argv, foreign))
        common = ["generate", *argv, "--length", "50", "--seed", "1"]
        assert cli.main([*common, "--out", str(tmp_path / "ok.txt")]) == 0
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main([*common, *foreign, "--out", str(out)])
        assert exc.value.code == 1
        takes, got = capsys.readouterr().err.strip().split(f"--model {model} takes ")[1].split(", got ")
        assert takes.split(" and ") == flags
        assert sorted(got.split(" and ")) == sorted([*flags, foreign[0]])
        assert not out.exists() and not (tmp_path / "out.txt.meta.json").exists()

    def test_generate_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert cli.main([
                "generate", "--model", "py", "--a", "0.68", "--b", "0.8",
                "--length", "5000", "--seed", "11", "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_shuffle_command(self, tmp_path):
        src = tmp_path / "seq.txt"
        src.write_text("a\nb\nc\nd\ne\n")
        out = tmp_path / "shuffled.txt"
        assert cli.main(["shuffle", "--input", str(src), "--seed", "3", "--out", str(out)]) == 0
        tokens = out.read_text().split()
        assert sorted(tokens) == ["a", "b", "c", "d", "e"]
        meta = json.loads((tmp_path / "shuffled.txt.meta.json").read_text())
        assert list(meta) == ["model", "params", "seed", "length", "final_vocab"]
        assert meta["final_vocab"] == 5

    @pytest.mark.parametrize("argv, degenerate", [
        (["generate", "--model", "simon", "--alpha", "0.3", "--length", "3000"], False),
        (["generate", "--model", "py", "--a", "0.5", "--b", "1", "--length", "3000"], False),
        (["generate", "--model", "py", "--a", "0", "--b", "0", "--length", "3000"], True),
        (["generate", "--model", "conjunct", "--a", "0.68", "--b", "0.8", "--length", "3000"], False),
        (["generate", "--model", "conjunct", "--a", "0", "--b", "0", "--length", "3000"], True),
        (["generate", "--model", "zipf", "--vocab", "400", "--exponent", "1.1", "--length", "3000"], False),
        (["generate", "--model", "bigram", "--corpus", "CORPUS", "--length", "3000"], False),
        (["shuffle", "--input", "CORPUS"], False),
    ])
    def test_sidecar_counts_distinct_tokens(self, tmp_path, argv, degenerate):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(f"t{i * i % 101}\n" for i in range(2000)))
        out = tmp_path / "out.txt"
        argv = [str(corpus) if a == "CORPUS" else a for a in argv]
        assert cli.main([*argv, "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = json.loads((tmp_path / "out.txt.meta.json").read_text())
        keys = ["model", "params", "seed", "length", "final_vocab"]
        assert list(meta) == keys + ["degenerate"] * degenerate
        assert meta["final_vocab"] == len(set(lines))
        assert meta["length"] == len(lines)
        if degenerate:
            assert meta["degenerate"] is True and meta["final_vocab"] == 1

    @pytest.mark.parametrize("argv", [
        ["generate", "--model", "simon", "--alpha", "0.3", "--length", "500"],
        ["shuffle", "--input", "SRC"],
    ])
    def test_sequence_written_through_module_writer(self, tmp_path, monkeypatch, argv):
        # Tracing wraps harness.write_token_file by name, so the sequence
        # writer must look it up on the module each time it runs.
        src = tmp_path / "src.txt"
        src.write_text("a\nb\na\nc\n")
        written = []
        real = harness.write_token_file
        monkeypatch.setattr(harness, "write_token_file", lambda seq, path: written.append(path) or real(seq, path))
        out = tmp_path / "out.txt"
        argv = [str(src) if a == "SRC" else a for a in argv]
        assert cli.main([*argv, "--seed", "3", "--out", str(out)]) == 0
        assert written == [str(out)]
        assert out.exists()

    def test_chat_extract(self, tmp_path):
        sample = Path(__file__).parent / "data" / "sample.cha"
        out = tmp_path / "chi.txt"
        code = cli.main([
            "chat-extract", "--input", str(sample), "--speakers", "CHI",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().split()[:2] == ["more", "cookie"]
        prov = json.loads((tmp_path / "chi.txt.provenance.json").read_text())
        assert prov["speakers"] == ["CHI"]
        assert prov["dropped_token_count"] == 3

    @pytest.mark.parametrize("speakers", ["", ","])
    def test_chat_extract_without_speakers_is_usage_error(self, tmp_path, capsys, speakers):
        # found before the transcript is read: a missing input would exit 2
        out = tmp_path / "chi.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["chat-extract", "--input", str(tmp_path / "missing.cha"), "--speakers", speakers,
                      "--out", str(out)])
        assert exc.value.code == 1
        assert "argument --speakers: no speaker codes" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_command(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "model": "conjunct", "a_values": [0.68], "b_values": [0.8],
            "replicates": 1, "length": 8000, "base_seed": 3,
        }))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        assert (out / "aggregates.csv").exists()

    @pytest.mark.parametrize("spec", [
        b'{"model": "simon\xff"}',
        b"[0.1]",
        b'{"model": "simon", "replicates": 1, "length": "abc", "base_seed": 0, "alpha_values": [0.1]}',
        b'{"model": "simon", "replicates": 1, "length": 10, "base_seed": 0, "alpha_values": 0.1}',
        b'{"model": "simon", "replicates": 1, "length": 10, "base_seed": 0, "alpha_values": [0.1, 0.1]}',
    ])
    def test_bad_sweep_spec_exit_code(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(spec)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("b", ["NaN", "Infinity"])
    def test_non_finite_sweep_cell_runs_nothing(self, tmp_path, monkeypatch, b):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"model": "conjunct", "a_values": [0.5], "b_values": [0.5, %s], '
                             '"replicates": 1, "length": 2000, "base_seed": 3}' % b)
        runs = []
        monkeypatch.setattr(harness, "generate", lambda params: runs.append(params))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["shuffle", "--seed", "-1"],
        ["generate", "--model", "zipf", "--vocab", "5", "--exponent", "1", "--length", "10",
         "--seed", str(2**64)],
        ["generate", "--model", "py", "--a", "0.5", "--b", "inf", "--length", "50", "--seed", "1"],
        ["generate", "--model", "zipf", "--vocab", "5", "--exponent", "nan", "--length", "10", "--seed", "1"],
    ])
    def test_out_of_range_seed_or_parameter_exit_code(self, tmp_path, capsys, argv):
        src = tmp_path / "seq.txt"
        src.write_text("a\nb\na\n")
        out = tmp_path / "out.txt"
        if argv[0] == "shuffle":
            argv = [*argv, "--input", str(src)]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert "parameter out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_command(self, tmp_path):
        src = tmp_path / "tiny.txt"
        src.write_text("a\nb\na\n")
        analysis = tmp_path / "analysis"
        run_analysis(src, n=2, out_dir=analysis)
        out = tmp_path / "fig"
        assert cli.main(["figure", "--input", str(analysis), "--id", "rankfreq", "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("damage", [
        ("aggregates.csv", "alpha,replicates,mean_gamma,sd_gamma,lrc_fraction,mean_fit_error,pooled_fit_error"),
        ("aggregates.csv", "a,b,replicates,mean_gamma,sd_gamma,mean_fit_error,pooled_fit_error"),
        ("aggregates.csv", None),
        ("sweep.json", "{"),
        ("sweep.json", '{"spec": {"model": "markov"}}'),
        ("sweep.json", "[]"),
        ("sweep.json", None),
    ], ids=["simon-header", "no-lrc-fraction", "no-aggregates", "bad-json", "unknown-model",
            "no-spec", "no-manifest"])
    def test_sweep_map_bad_input_exit_code(self, tmp_path, capsys, damage):
        # The model named in sweep.json fixes the exact aggregates.csv header.
        name, text = damage
        spec = SweepSpec(model="conjunct", replicates=1, length=10, base_seed=0,
                         a_values=(0.5,), b_values=(1.0,))
        aggregates = (CellAggregate(cell=(0.5, 1.0), replicates=1, mean_gamma=None, sd_gamma=None,
                                    lrc_fraction=0.0, mean_fit_error=None, pooled_fit_error=None),)
        sweep = tmp_path / "sweep"
        write_sweep_result(SweepResult(spec=spec, records=(), aggregates=aggregates), sweep)
        path = sweep / name
        lines = path.read_text().split("\n")
        if text is None:
            path.unlink()
        elif name == "aggregates.csv":
            path.write_text("\n".join([text] + lines[1:]))
        else:
            path.write_text(text)
        out = tmp_path / "fig"
        assert cli.main(["figure", "--input", str(sweep), "--id", "sweep_map", "--out", str(out)]) == 2
        assert "lrclab: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_analysis_removes_stale_curves(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        long_src, short_src = tmp_path / "long.txt", tmp_path / "short.txt"
        long_src.write_text("\n".join(f"w{t}" for t in rng.integers(0, 40, size=20000)) + "\n")
        short_src.write_text("".join(f"u{i}\n" for i in range(24)))  # no interval: every word once
        out = tmp_path / "analysis"
        assert cli.main(["analyze", "--input", str(long_src), "--out", str(out)]) == 0
        assert (out / "acf.csv").exists() and (out / "intervals.csv").exists()
        assert cli.main(["analyze", "--input", str(short_src), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["m"], report["acf_skipped"]) == (24, "insufficient occurrences")
        assert not (out / "acf.csv").exists()
        assert not (out / "intervals.csv").exists()
        capsys.readouterr()
        assert cli.main(["figure", "--input", str(out), "--id", "acf", "--out", str(tmp_path / "fig")]) == 2
        assert "acf.csv not found" in capsys.readouterr().err
        assert not (tmp_path / "fig").exists()

    @pytest.mark.parametrize("damage", [
        lambda r: json.dumps({k: v for k, v in r.items() if k != "m_n"}),
        lambda r: json.dumps({**r, "m_n": None}),
        lambda r: json.dumps({**r, "m_n": str(r["m_n"])}),
        lambda r: json.dumps({**r, "m_n": float(r["m_n"])}),
        lambda r: json.dumps({**r, "m_n": True}),
        lambda r: "{",
        lambda r: "[]",
        None,
    ], ids=["missing", "null", "string", "float", "bool", "broken-json", "not-an-object", "no-report"])
    def test_acf_figure_bad_report_exit_code(self, tmp_path, capsys, damage):
        # m_n keeps its value where only its type is wrong, so that the
        # type check alone rejects it
        src = tmp_path / "tokens.txt"
        rng = np.random.default_rng(3)
        src.write_text("\n".join(f"w{t}" for t in rng.integers(0, 40, size=20000)) + "\n")
        analysis = tmp_path / "analysis"
        assert cli.main(["analyze", "--input", str(src), "--out", str(analysis)]) == 0
        assert (analysis / "acf.csv").exists()
        path = analysis / "report.json"
        if damage is None:
            path.unlink()
        else:
            path.write_text(damage(json.loads(path.read_text())))
        capsys.readouterr()
        out = tmp_path / "fig"
        assert cli.main(["figure", "--input", str(analysis), "--id", "acf", "--out", str(out)]) == 2
        assert "lrclab: error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("figure_id, name, damage", [
        ("acf", "acf.csv", lambda b: re.sub(rb"\n1,[^\n]*", b"\n1,abc", b, count=1)),
        ("acf", "acf.csv", lambda b: b.replace(b"\n1,", b"\n1.5,", 1)),
        ("acf", "acf.csv", lambda b: b + b"\xff\n"),
        ("rankfreq", "rankfreq.csv", lambda b: b + b"\xff\n"),
        ("typetoken", "typetoken.csv", lambda b: b + b"\xff\n"),
        ("sweep_map", "aggregates.csv", lambda b: b + b"\xff\n"),
    ], ids=["acf-not-a-number", "acf-fractional-offset", "acf-non-utf8", "rankfreq-non-utf8",
            "typetoken-non-utf8", "aggregates-non-utf8"])
    def test_figure_malformed_input_exit_code(self, tmp_path, capsys, figure_id, name, damage):
        src = tmp_path / "tokens.txt"
        rng = np.random.default_rng(3)
        src.write_text("\n".join(f"w{t}" for t in rng.integers(0, 40, size=20000)) + "\n")
        # One directory holds an analysis and a sweep, so every figure id finds its input.
        analysis = tmp_path / "analysis"
        run_analysis(src, out_dir=analysis)
        spec = SweepSpec(model="conjunct", replicates=1, length=10, base_seed=0,
                         a_values=(0.5,), b_values=(1.0,))
        aggregates = (CellAggregate(cell=(0.5, 1.0), replicates=1, mean_gamma=None, sd_gamma=None,
                                    lrc_fraction=0.0, mean_fit_error=None, pooled_fit_error=None),)
        write_sweep_result(SweepResult(spec=spec, records=(), aggregates=aggregates), analysis)
        path = analysis / name
        damaged = damage(path.read_bytes())
        assert damaged != path.read_bytes()
        path.write_bytes(damaged)
        out = tmp_path / "fig"
        assert cli.main(["figure", "--input", str(analysis), "--id", figure_id, "--out", str(out)]) == 2
        assert "lrclab: error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("figure_id", ["acf", "rankfreq", "typetoken", "sweep_map"])
    def test_figure_missing_input_makes_no_out_dir(self, tmp_path, capsys, monkeypatch, figure_id):
        # the output directory is made only after every input has been read
        monkeypatch.chdir(tmp_path)
        assert cli.main(["figure", "--input", "nowhere", "--id", figure_id, "--out", "figout/deeper"]) == 2
        assert "lrclab: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_workers_below_one_usage_error(self, tmp_path, capsys, workers):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"model": "simon", "alpha_values": [0.1], "replicates": 1,
                                         "length": 100, "base_seed": 0}))
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--spec", str(spec_path), "--out", str(out), "--workers", workers])
        assert exc.value.code == 1
        assert "--workers: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_analyze_rarity_divisor_below_two_usage_error(self, tmp_path, capsys, n):
        # the flag is checked before the input is read: a missing input is not reported
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--input", str(tmp_path / "missing.txt"), "--n", n, "--out", str(out)])
        assert exc.value.code == 1
        assert "--n: must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_forced_rare_set(self, tmp_path, capsys):
        # oh and romeo stand at positions 0, 1, 2 and 6: three intervals, and no rarity divisor
        src = tmp_path / "romeo.txt"
        src.write_text(ROMEO + "\n")
        out = tmp_path / "out"
        assert cli.main(["analyze", "--input", str(src), "--rare", "romeo,Oh", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n"] is None and report["m_n"] == 3

    def test_analyze_empty_rare_word_data_error(self, tmp_path, capsys):
        # an empty --rare names the empty word; it does not fall back to selection by rarity
        src = tmp_path / "romeo.txt"
        src.write_text(ROMEO + "\n")
        assert cli.main(["analyze", "--input", str(src), "--rare", "", "--out", str(tmp_path / "out")]) == 2
        assert "rare word '' does not occur" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, kept, dropped", [
        ([], ["more", "cookie"], 2),
        (["--drop-codes", ""], ["xxx", "more", "yyy", "cookie"], 0),
        (["--drop-codes", ","], ["xxx", "more", "yyy", "cookie"], 0),
        (["--drop-codes", "more"], ["xxx", "yyy", "cookie"], 1),
    ])
    def test_chat_extract_drop_codes(self, tmp_path, flags, kept, dropped):
        # an empty --drop-codes drops no code, as a list of empty codes does
        src = tmp_path / "one.cha"
        src.write_text("@Begin\n*CHI:\txxx more yyy cookie .\n@End\n")
        out = tmp_path / "chi.txt"
        assert cli.main(["chat-extract", "--input", str(src), "--speakers", "CHI", *flags, "--out", str(out)]) == 0
        assert out.read_text().split() == kept
        assert json.loads((tmp_path / "chi.txt.provenance.json").read_text())["dropped_token_count"] == dropped

    def test_generate_py_requires_b(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "generate", "--model", "py", "--a", "0.5",
                "--length", "100", "--seed", "1", "--out", str(tmp_path / "s.txt"),
            ])
        assert exc.value.code == 1
        assert not (tmp_path / "s.txt").exists()

    def test_figure_bad_id_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "--input", str(tmp_path), "--id", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 1
