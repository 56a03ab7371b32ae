"""Tests for the ``loggrep`` command-line interface."""

import json
import re

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


class TestAppend:
    def test_compress_after_partial_cold_demote(self, tmp_path, capsys):
        """A partial cold merge leaves gaps in the block names; a later
        compress must append after the last block, not over it."""
        import json
        import time

        from repro.baselines.evalutil import grep_lines

        now = time.time()

        def stamped(seed, age_days):
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.gmtime(now - age_days * 86400)
            )
            return [f"{stamp} {line}" for line in make_mixed_lines(1500, seed=seed)]

        archive = str(tmp_path / "arch")

        def compress(lines, name):
            path = tmp_path / name
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert main(["compress", str(path), "-a", archive, "--block-bytes", "8192"]) == 0

        first = stamped(1, 90) + stamped(2, 1)
        compress(first, "first.log")
        assert main(
            ["lifecycle", "demote", "--tier", "cold", "--older-than", "30d", "-a", archive]
        ) == 0
        capsys.readouterr()
        assert main(["lifecycle", "status", "--json", "-a", archive]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["cold"]["blocks"] > 0 and status["hot"]["blocks"] > 0
        later = stamped(3, 0)
        compress(later, "later.log")
        lines = first + later
        capsys.readouterr()
        for query in ("read", "ERROR", "state: ERR"):
            assert main(["grep", query, "-a", archive]) == 0
            assert capsys.readouterr().out.splitlines() == grep_lines(query, lines)
        assert main(["stats", "-a", archive]) == 0
        assert f"total: {len(lines)} lines" in capsys.readouterr().out


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

    def test_grep_ignore_case_flag(self, log_file, tmp_path, capsys):
        path, lines = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        main(["grep", "error", "-a", str(archive), "-c", "-i"])
        out = capsys.readouterr().out.strip()
        assert int(out) == sum(1 for l in lines if "error" in l.lower())

    def test_grep_stats_to_stderr(self, log_file, tmp_path, capsys):
        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive)])
        capsys.readouterr()
        main(["grep", "ERROR", "-a", str(archive), "--stats"])
        captured = capsys.readouterr()
        assert "hit(s)" in captured.err
        # Capsules considered are printed next to those filtered, and
        # equal the JSON document's counters.
        counts = dict(re.findall(r"(considered|filtered): (\d+)", captured.err))
        main(["grep", "ERROR", "-a", str(archive), "--stats", "--json"])
        stats = json.loads(capsys.readouterr().err)["stats"]
        assert int(counts["considered"]) == stats["capsules_considered"] > 0
        assert int(counts["filtered"]) == stats["capsules_filtered"]
        assert stats["capsules_filtered"] <= stats["capsules_considered"]

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

    def test_stats_reports_the_sidecar(self, log_file, tmp_path, capsys):
        import json

        from repro.blockstore.index import INDEX_AUX_NAME
        from repro.blockstore.store import ArchiveStore

        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive), "--block-bytes", "4096"])
        capsys.readouterr()
        assert main(["stats", "-a", str(archive), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        store = ArchiveStore(str(archive))
        sidecar = len(store.get_aux(INDEX_AUX_NAME))
        assert doc["sidecar_bytes"] == sidecar > 0
        assert main(["stats", "-a", str(archive)]) == 0
        share = 100 * sidecar / doc["stored_bytes"]
        assert (
            f"{doc['stored_bytes']} stored bytes, {sidecar} sidecar bytes "
            f"({share:.2f} % of block bytes)" in capsys.readouterr().out
        )
        store.delete_aux(INDEX_AUX_NAME)
        assert main(["stats", "-a", str(archive), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["sidecar_bytes"] == 0

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

    def test_stats_splits_each_block_into_metadata_and_payload(
        self, log_file, tmp_path, capsys
    ):
        import json

        path, lines = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive), "--block-bytes", "4096"])
        capsys.readouterr()
        assert main(["stats", "-a", str(archive), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["blocks"]) > 1
        header = 16
        for block in doc["blocks"]:
            # One u8 group-id cell per line, 24 Capsule-table bytes per
            # Capsule and a directory, inside the inflated metadata.
            assert block["column_bytes"] == block["lines"]
            assert block["capsule_table_bytes"] == 24 * block["capsules"]
            assert block["directory_bytes"] > 0
            assert (
                block["column_bytes"] + block["capsule_table_bytes"]
                + block["directory_bytes"]
                < block["meta_inflated_bytes"]
            )
        assert doc["stored_bytes"] == sum(
            header + block["meta_bytes"] + block["payload_bytes"]
            for block in doc["blocks"]
        )
        assert main(["stats", "-a", str(archive)]) == 0
        out = capsys.readouterr().out
        first = doc["blocks"][0]
        assert (
            f"{first['meta_bytes']} metadata bytes "
            f"({first['meta_inflated_bytes']} B inflated: group-id column "
            f"{first['column_bytes']} B, Capsule table "
            f"{first['capsule_table_bytes']} B, directory "
            f"{first['directory_bytes']} B)" in out
        )


class TestLostBlock:
    """A block the prune index lists but the archive directory lacks."""

    @pytest.fixture
    def damaged(self, log_file, tmp_path, capsys):
        path, _ = log_file
        archive = tmp_path / "arch"
        main(["compress", str(path), "-a", str(archive), "--block-bytes", "2048"])
        blocks = sorted(p.name for p in archive.iterdir() if not p.name.startswith("."))
        assert len(blocks) > 2
        victim = blocks[1]
        (archive / victim).unlink()
        capsys.readouterr()
        return str(archive), victim, len(blocks)

    def test_verify_reports_it(self, damaged, capsys):
        archive, victim, total = damaged
        assert main(["verify", "-a", archive]) == 1
        out = capsys.readouterr().out
        assert f"{victim}: missing" in out
        assert f"{total - 1}/{total} block(s) healthy" in out

    @pytest.mark.parametrize(
        "argv",
        [["grep", "ERROR", "--count"], ["grep", "ERROR"], ["stats"]],
        ids=" ".join,
    )
    def test_a_read_names_it(self, damaged, capsys, argv):
        archive, victim, _ = damaged
        assert main(argv + ["-a", archive]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert victim in captured.err


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
            ["agg", "count-by", "state"],
            ["agg", "fields"],
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

    def test_fields(self, structured_archive, capsys):
        from repro import LogGrep
        from repro.blockstore.store import ArchiveStore

        archive, _ = structured_archive
        capsys.readouterr()
        assert main(["agg", "fields", "-a", str(archive)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "Project" in printed and "latency" in printed
        assert printed == LogGrep(store=ArchiveStore(str(archive))).fields()

    def test_missing_field_is_an_error(self, structured_archive, capsys):
        archive, _ = structured_archive
        capsys.readouterr()
        assert main(["agg", "count-by", "-a", str(archive)]) == 2
        assert "requires a FIELD" in capsys.readouterr().err


class TestAggBuildsNoVectorForTheSchema:
    def test_agg_builds_no_more_vectors_than_the_same_grep(self, tmp_path, capsys):
        # Field discovery reads each vector's patterns off its record, so
        # an aggregate builds only the vectors its filter and its field
        # read: at most what a grep of the same filter builds.
        path = tmp_path / "app.log"
        lines = make_mixed_lines(3000, seed=9)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        archive = str(tmp_path / "arch")
        main(["compress", str(path), "-a", archive, "--block-bytes", "16384"])
        assert len(list((tmp_path / "arch").glob("*.lgcb"))) > 3
        capsys.readouterr()

        def vectors_built(argv):
            assert main(argv) == 0
            out, err = capsys.readouterr()
            row = next(
                line.split() for line in err.splitlines()
                if line.split()[:1] == ["load_box"]
            )
            return int(row[-1]), out

        agg, out = vectors_built(
            ["agg", "count-by", "file", "-a", archive, "-w", "ERROR", "--analyze"]
        )
        assert ".log" in out  # the ERROR lines' file field
        grep, _ = vectors_built(["grep", "ERROR", "-a", archive, "--analyze"])
        assert 0 < agg <= grep


class TestClusterCommand:
    """``loggrep cluster``: a one-shot in-memory cluster run."""

    def _run(self, log_file, capsys, *extra):
        path, lines = log_file
        capsys.readouterr()
        rc = main(
            ["cluster", str(path), "ERROR", "-n", "3", "--block-bytes", "4096",
             *extra]
        )
        assert rc == 0
        return lines, capsys.readouterr()

    def test_count_with_shard_table(self, log_file, capsys):
        from repro.baselines.evalutil import grep_lines

        lines, captured = self._run(log_file, capsys, "-c", "--analyze")
        assert int(captured.out.strip()) == len(grep_lines("ERROR", lines))
        assert "cluster query 'ERROR' (mode=count)" in captured.err
        assert "block-" in captured.err

    def test_grep_limit_with_shard_table(self, log_file, capsys):
        from repro.baselines.evalutil import grep_lines

        lines, captured = self._run(
            log_file, capsys, "--analyze", "--limit", "3"
        )
        assert captured.out.splitlines() == grep_lines("ERROR", lines)[:3]
        assert "cluster query 'ERROR' (mode=rows)" in captured.err
        phases = {row.split()[1] for row in captured.err.splitlines()[2:]}
        assert phases == {"rows", "lines"}
