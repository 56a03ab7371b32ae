"""Tests for the ``loggrep`` command-line interface."""

import pytest

from repro.cli import main
from tests.conftest import make_mixed_lines


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "app.log"
    lines = make_mixed_lines(300)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, lines


class TestCompress:
    def test_compress_creates_archive(self, log_file, tmp_path, capsys):
        path, _ = log_file
        archive = tmp_path / "arch"
        rc = main(["compress", str(path), "-a", str(archive)])
        assert rc == 0
        assert "ratio" in capsys.readouterr().out
        assert list(archive.iterdir())

    def test_compress_block_bytes(self, log_file, tmp_path):
        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive), "--block-bytes", "4096"])
        assert len(list(archive.iterdir())) > 1


class TestGrep:
    def test_grep_outputs_lines(self, log_file, tmp_path, capsys):
        path, lines = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        rc = main(["grep", "ERROR", "-a", str(archive)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        expected = [l for l in lines if "ERROR" in l]
        assert out == expected

    def test_grep_count(self, log_file, tmp_path, capsys):
        path, lines = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        main(["grep", "ERROR", "-a", str(archive), "-c"])
        out = capsys.readouterr().out.strip()
        assert int(out) == sum(1 for l in lines if "ERROR" in l)

    def test_grep_stats_to_stderr(self, log_file, tmp_path, capsys):
        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        main(["grep", "ERROR", "-a", str(archive), "--stats"])
        captured = capsys.readouterr()
        assert "hit(s)" in captured.err

    def test_grep_analyze_prints_ledger_table(self, log_file, tmp_path, capsys):
        path, lines = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        rc = main(["grep", "ERROR", "-a", str(archive), "--analyze"])
        assert rc == 0
        captured = capsys.readouterr()
        # Matching lines still go to stdout; the ledger table to stderr.
        assert captured.out.splitlines() == [l for l in lines if "ERROR" in l]
        assert "resource ledger" in captured.err
        for column in ("operator", "read_bytes", "rows_scanned", "TOTAL"):
            assert column in captured.err

    def test_grep_budget_abort_is_a_clean_error(
        self, log_file, tmp_path, capsys, monkeypatch
    ):
        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive), "--block-bytes", "4096"])
        capsys.readouterr()
        monkeypatch.setenv("LOGGREP_MAX_READ_BYTES", "100")
        rc = main(["grep", "ERROR", "-a", str(archive), "-c"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "partial ledger" in err

    def test_grep_trace_out_writes_chrome_trace(self, log_file, tmp_path, capsys):
        import json

        path, _ = log_file
        archive = tmp_path / "arch"
        trace_path = tmp_path / "trace.json"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        rc = main(["grep", "ERROR", "-a", str(archive), "--trace-out", str(trace_path)])
        assert rc == 0
        assert "trace event(s)" in capsys.readouterr().err
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"query", "block"} <= names


class TestMetricsCommand:
    def test_formats_and_reset(self, log_file, tmp_path, capsys):
        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        rc = main(["metrics", "-a", str(archive), "-q", "ERROR", "--format", "prom"])
        assert rc == 0
        prom = capsys.readouterr().out
        assert "# TYPE loggrep_queries_total counter" in prom
        assert "loggrep_store_bytes" in prom

        rc = main(["metrics", "-a", str(archive), "--format", "json", "--reset"])
        assert rc == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        samples = doc["loggrep_queries_total"]["samples"]
        assert samples and samples[0]["value"] >= 1

        # --reset zeroed the registry after printing: the next in-process
        # export starts from a fresh baseline (no query samples left).
        main(["metrics", "-a", str(archive), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["loggrep_queries_total"]["samples"] == []


class TestStats:
    def test_stats_lists_blocks(self, log_file, tmp_path, capsys):
        path, lines = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        rc = main(["stats", "-a", str(archive)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"total: {len(lines)} lines" in out

    def test_stats_splits_capsules_by_codec(self, log_file, tmp_path, capsys):
        import json

        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        assert main(["stats", "-a", str(archive), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for block in doc["blocks"]:
            codecs = block["codecs"]
            assert set(codecs) == {"raw", "zlib", "lzma"}
            assert sum(c["capsules"] for c in codecs.values()) == block["capsules"]
            assert (
                sum(c["payload_bytes"] for c in codecs.values())
                == block["payload_bytes"]
            )
        assert main(["stats", "-a", str(archive)]) == 0
        first = doc["blocks"][0]
        zlib_use = first["codecs"]["zlib"]
        assert (
            f"zlib {zlib_use['capsules']}/{zlib_use['payload_bytes']} B"
            in capsys.readouterr().out
        )


class TestArgErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["grep", "ERROR"],
            ["stats"],
            ["metrics"],
            ["explain", "ERROR"],
            ["verify"],
            ["analyze", "--fields"],
            ["agg", "count-by", "state"],
            ["lifecycle", "status"],
            ["lifecycle", "demote", "--tier", "warm"],
        ],
        ids=" ".join,
    )
    def test_missing_archive_is_an_error(self, argv, tmp_path, capsys):
        """Only compress creates an archive: reading a mistyped path fails
        instead of answering from (and leaving behind) an empty one."""
        archive = tmp_path / "typo"
        assert main(argv + ["-a", str(archive)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"no such archive: {archive}" in captured.err
        assert not archive.exists()


class TestAnalyze:
    def test_fields_and_count_by(self, log_file, tmp_path, capsys):
        path, lines = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        rc = main(["analyze", "-a", str(archive), "--fields"])
        assert rc == 0
        assert "fields:" in capsys.readouterr().out

        main(["analyze", "-a", str(archive), "--count-by", "code", "-w", "ERROR"])
        out = capsys.readouterr().out
        total = sum(int(row.split()[0]) for row in out.strip().splitlines())
        assert total == sum(1 for l in lines if "ERROR" in l and "code=" in l)

    def test_stats_of(self, log_file, tmp_path, capsys):
        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        rc = main(["analyze", "-a", str(archive), "--stats-of", "code"])
        assert rc == 0
        assert "count=" in capsys.readouterr().out

    def test_no_action(self, log_file, tmp_path, capsys):
        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        assert main(["analyze", "-a", str(archive)]) == 2

    def test_grep_ignore_case_flag(self, log_file, tmp_path, capsys):
        path, lines = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        main(["grep", "error", "-a", str(archive), "-c", "-i"])
        out = capsys.readouterr().out.strip()
        assert int(out) == sum(1 for l in lines if "error" in l.lower())


@pytest.fixture
def structured_archive(tmp_path):
    lines = []
    for i in range(800):
        level = "ERROR" if i % 5 == 0 else "INFO"
        lines.append(
            f"2024-01-01 00:00:{i % 60:02d} {level} svc "
            f"Project:{i % 3} latency:{i * 7}us req done"
        )
    path = tmp_path / "structured.log"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    archive = tmp_path / "agg_arch"
    main(["compress", str(path), "-a", str(archive), "--block-bytes", "8192"])
    return archive, lines


class TestAgg:
    def test_count_by(self, structured_archive, capsys):
        archive, lines = structured_archive
        capsys.readouterr()
        rc = main(["agg", "count-by", "Project", "-a", str(archive), "-w", "ERROR"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        total = sum(int(row.split()[0]) for row in rows)
        assert total == sum(1 for l in lines if "ERROR" in l)

    def test_top_k(self, structured_archive, capsys):
        archive, _ = structured_archive
        capsys.readouterr()
        rc = main(["agg", "top-k", "Project", "-a", str(archive), "-k", "2"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_stats(self, structured_archive, capsys):
        archive, _ = structured_archive
        capsys.readouterr()
        rc = main(["agg", "stats", "latency", "-a", str(archive)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "count=800" in out and "nulls=0" in out

    def test_timeseries(self, structured_archive, capsys):
        archive, lines = structured_archive
        capsys.readouterr()
        rc = main(
            ["agg", "timeseries", "-a", str(archive), "-w", "ERROR", "--buckets", "4"]
        )
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 4
        total = sum(int(row.rsplit(None, 1)[-1]) for row in rows)
        assert total == sum(1 for l in lines if "ERROR" in l)

    def test_count_templates(self, structured_archive, capsys):
        archive, _ = structured_archive
        capsys.readouterr()
        rc = main(["agg", "count-templates", "-a", str(archive)])
        assert rc == 0
        assert "800" in capsys.readouterr().out

    def test_analyze_flag_prints_ledger(self, structured_archive, capsys):
        archive, _ = structured_archive
        capsys.readouterr()
        rc = main(
            ["agg", "count-by", "Project", "-a", str(archive), "--analyze", "-j", "2"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "resource ledger" in err
        assert "aggregate" in err

    def test_json_output(self, structured_archive, capsys):
        import json as json_mod

        archive, _ = structured_archive
        capsys.readouterr()
        rc = main(["agg", "count-by", "Project", "-a", str(archive), "--json"])
        assert rc == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert sum(doc.values()) == 800

    def test_missing_field_is_an_error(self, structured_archive, capsys):
        archive, _ = structured_archive
        capsys.readouterr()
        assert main(["agg", "count-by", "-a", str(archive)]) == 2
        assert "requires a FIELD" in capsys.readouterr().err
