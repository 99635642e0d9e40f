"""Tests for the command-line interface and WHOIS serialization."""

import json

import pytest

from repro.cli import build_parser, main
from repro.whois.archive import WhoisArchive


class TestWhoisSerialization:
    @pytest.fixture()
    def archive(self):
        whois = WhoisArchive()
        whois.record_registration(
            "foo.com", "godaddy", day=0, period_years=2, registrant="Alice"
        )
        whois.record_deletion("foo.com", day=100)
        whois.record_registration("foo.com", "enom", day=150)
        whois.record_registration("bar.biz", "bulkreg", day=7)
        return whois

    def test_json_lines_are_valid(self, archive):
        lines = list(archive.to_json_lines())
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_round_trip(self, archive, tmp_path):
        path = tmp_path / "whois.jsonl"
        assert archive.dump(path) == 3
        restored = WhoisArchive.load(path)
        assert restored.registrar_at("foo.com", 50) == "godaddy"
        assert restored.registrar_at("foo.com", 200) == "enom"
        assert restored.registrar_at("bar.biz", 10) == "bulkreg"
        assert restored.current("foo.com", 120) is None

    def test_last_registrar_before(self, archive):
        assert archive.last_registrar_before("foo.com", 120) == "godaddy"
        assert archive.last_registrar_before("foo.com", 500) == "enom"
        assert archive.last_registrar_before("ghost.com", 10) is None


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["report"],
            ["simulate", "--out", "x"],
            ["detect", "--archive", "x"],
            ["experiment"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.seed == 2021
        assert args.scale == 0.25


class TestSimulateDetectRoundTrip:
    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("simout")
        code = main([
            "simulate", "--out", str(out),
            "--scale", "0.1", "--every", "60",
        ])
        assert code == 0
        return out

    def test_archive_written(self, simulated):
        assert (simulated / "whois.jsonl").exists()
        zones = list((simulated / "zones").rglob("*.zone"))
        assert len(zones) > 100

    def test_detect_from_disk(self, simulated, capsys):
        code = main([
            "detect",
            "--archive", str(simulated / "zones"),
            "--whois", str(simulated / "whois.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Detection pipeline funnel" in out
        assert "Table 3" in out
        assert "PLEASEDROPTHISHOST" in out

    def test_detect_attributes_registrars_from_whois(self, simulated, capsys):
        main([
            "detect",
            "--archive", str(simulated / "zones"),
            "--whois", str(simulated / "whois.jsonl"),
        ])
        out = capsys.readouterr().out
        table2 = out.split("Table 2")[1].split("Table 3")[0]
        assert "(unattributed)" not in table2

    def test_detect_empty_archive_fails(self, tmp_path, capsys):
        code = main(["detect", "--archive", str(tmp_path)])
        assert code == 1

    def test_detect_missing_archive_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["detect", "--archive", str(missing)]) == 1
        err = capsys.readouterr().err
        assert f"archive directory does not exist: {missing}" in err
        assert "no delegations" not in err

    def test_detect_simulate_out_dir_suggests_zones(self, simulated, capsys):
        assert main(["detect", "--archive", str(simulated)]) == 1
        err = capsys.readouterr().err
        assert f"no *.zone files under {simulated}" in err
        assert f"did you mean {simulated / 'zones'}?" in err
        assert "no delegations" not in err

    def test_detect_requires_a_source(self, capsys):
        assert main(["detect"]) == 2
        assert "--dataset or --archive" in capsys.readouterr().err

    def test_dataset_written_with_manifest(self, simulated):
        from repro.lint.scenario_engine import lint_scenario_data

        dataset = simulated / "dataset.sqlite"
        manifest = simulated / "dataset.sqlite.manifest.json"
        assert dataset.exists() and manifest.exists()
        doc = json.loads(manifest.read_text())
        assert doc["format"] == "riskybiz-dataset/1"
        assert len(doc["scenario_digest"]) == 64
        assert lint_scenario_data(doc, str(manifest)) == []

    def test_detect_from_dataset_sharded_and_cached(
        self, simulated, tmp_path, capsys
    ):
        """detect over the simulate-written SQLite dataset, no shared
        in-process world: sharded run, pipeline artifact cached."""
        cache_dir = tmp_path / "cache"
        argv = [
            "detect",
            "--dataset", str(simulated / "dataset.sqlite"),
            "--whois", str(simulated / "whois.jsonl"),
            "--shards", "3",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Detection pipeline funnel" in captured.out
        assert "scenario digest" in captured.err
        cached = sorted(p.name for p in cache_dir.glob("pipeline-*"))
        assert len(cached) == 2  # artifact pickle + manifest sidecar

        # Second invocation: served from the on-disk artifact cache,
        # identical report.
        assert main(argv) == 0
        assert capsys.readouterr().out == captured.out


class TestAdvanceCommand:
    """``riskybiz advance``: a standing mined run resumed across calls."""

    def test_resumed_mined_advance_matches_batch(self, tmp_path, capsys):
        import re

        from repro.detection.pipeline import DetectionPipeline
        from repro.runner.execution import result_digest
        from repro.store.dataset import open_dataset

        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--scale", "0.03"]) == 0
        zonedb = open_dataset(out / "dataset.sqlite")
        whois = WhoisArchive.load(out / "whois.jsonl")
        batch = DetectionPipeline(zonedb, whois, mine_patterns=True).run()
        days = sorted({day for day, _ in zonedb.deltas_since(None)})
        zonedb.close()
        capsys.readouterr()

        run_dir = tmp_path / "run"
        advance = [
            "advance",
            "--dataset", str(out / "dataset.sqlite"),
            "--whois", str(out / "whois.jsonl"),
            "--run-dir", str(run_dir),
            "--mine-patterns",
        ]
        assert main(advance + ["--until", str(days[len(days) // 2])]) == 0
        first = capsys.readouterr()
        assert f"watermark now {days[len(days) // 2]}" in first.err
        assert main(advance) == 0
        second = capsys.readouterr()
        assert f"watermark now {days[-1]}" in second.err
        digest = re.search(r"^Result digest: (\w+)", second.out, re.MULTILINE)
        assert digest is not None
        assert digest.group(1) == result_digest(batch)

        assert main(["verify-data", "--run-dir", str(run_dir)]) == 0
        assert "all checks passed" in capsys.readouterr().out


class TestExperimentCommand:
    def test_experiment_runs(self, capsys):
        code = main(["experiment", "--scale", "0.1", "--seed", "31"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hijack demonstrated" in out


class TestExportCommand:
    def test_export_writes_csvs(self, tmp_path, capsys):
        code = main(["export", "--out", str(tmp_path), "--scale", "0.1"])
        assert code == 0
        written = {p.name for p in tmp_path.glob("*.csv")}
        assert "figure5_value_scatter.csv" in written
        assert len(written) == 6


class TestScenarioConfig:
    def test_scenario_dump_and_reuse(self, tmp_path, capsys):
        config_path = tmp_path / "scenario.json"
        assert main([
            "scenario", "--out", str(config_path), "--scale", "0.1", "--seed", "5",
        ]) == 0
        assert config_path.exists()
        out_dir = tmp_path / "sim"
        assert main([
            "simulate", "--out", str(out_dir), "--config", str(config_path),
            "--every", "90",
        ]) == 0
        assert (out_dir / "whois.jsonl").exists()

    def test_round_trip_reproduces_world(self, tmp_path):
        from repro.ecosystem.config import default_scenario
        from repro.ecosystem.scenario_io import load_scenario, save_scenario
        from repro.ecosystem.world import World
        config = default_scenario(seed=12).scaled(0.1)
        path = save_scenario(config, tmp_path / "s.json")
        restored = load_scenario(path)
        a = World(config).run()
        b = World(restored).run()
        assert [r.new_name for r in a.log.renames] == [
            r.new_name for r in b.log.renames
        ]

    def test_unknown_idiom_type_rejected(self, tmp_path):
        import json
        from repro.ecosystem.config import default_scenario
        from repro.ecosystem.scenario_io import load_scenario, scenario_to_dict
        data = scenario_to_dict(default_scenario())
        data["registrars"][0]["idiom_schedule"][0][1]["type"] = "EvilIdiom"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_scenario(path)
