import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import MARKET_FIMI, delivering, remade

import distmine
from distmine import CountRequest, CountResponse, ProtocolError
from distmine.cli import _build_parser, _check_args, _execute, main

MARKET_LABELS = '{"1":"Coffee","2":"Tea","3":"Milk","5":"Butter"}'

# A run that polls and prunes by the max-count bound, for pinned-byte tests.
PINNED_RUN = (
    "--synthetic", "T=4,I=20,D=500,seed=4", "--sites", "5",
    "--partition", "random:7", "--minsup", "0.05",
)  # fmt: skip


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "market.dat"
    path.write_text(MARKET_FIMI)
    return path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestRun:
    def test_improved_result_json(self, market_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        status = run_cli(
            "--input", market_file, "--minsup", "2/3", "--sites", "2",
            "--algorithm", "improved", "--out", out,
        )
        assert status == 0
        obj = json.loads(out.read_text())
        assert obj["minsup"] == "2/3"
        assert obj["db_size"] == 3
        assert obj["threshold"] == 2
        assert len(obj["frequent"]) == 7
        assert [e["items"] for e in obj["frequent"][:4]] == [[1], [2], [3], [5]]
        assert [list(e) for e in obj["frequent"]] == [["items", "support"]] * 7

    def test_stdout_when_no_out_path(self, market_file, capsys):
        assert run_cli(
            "--input", market_file, "--minsup", "2/3", "--algorithm", "sequential"
        ) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["db_size"] == 3

    def test_labels_rendered(self, market_file, tmp_path):
        labels = tmp_path / "labels.json"
        labels.write_text(MARKET_LABELS)
        out = tmp_path / "result.json"
        run_cli(
            "--input", market_file, "--minsup", "2/3", "--sites", "2",
            "--algorithm", "improved", "--labels", labels, "--out", out,
        )
        obj = json.loads(out.read_text())
        singles = [e["labels"] for e in obj["frequent"] if len(e["items"]) == 1]
        assert singles == [["Coffee"], ["Tea"], ["Milk"], ["Butter"]]
        assert [list(e) for e in obj["frequent"]][0] == ["items", "labels", "support"]

    def test_sequential_equals_improved(self, market_file, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run_cli(
            "--input", market_file, "--minsup", "2/3", "--sites", "2",
            "--algorithm", "improved", "--out", out_a,
        )
        run_cli(
            "--input", market_file, "--minsup", "2/3",
            "--algorithm", "sequential", "--out", out_b,
        )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_metrics_csv_shape(self, market_file, tmp_path):
        metrics = tmp_path / "m.csv"
        run_cli(
            "--input", market_file, "--minsup", "2/3", "--sites", "2",
            "--algorithm", "improved", "--out", tmp_path / "r.json",
            "--metrics", metrics,
        )
        lines = metrics.read_text().splitlines()
        assert lines[0] == (
            "algorithm,round,candidates,candidates_pruned_local,"
            "messages,bytes,llk_total,lk_size,wall_ms"
        )
        assert len(lines) == 4  # header + three rounds
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "improved"
            assert cells[-1] == ""  # wall_ms stays empty for single runs

    def test_metrics_rows_per_algorithm(self, market_file, tmp_path):
        rows = {}
        for algorithm in ("improved", "cd", "sequential"):
            metrics = tmp_path / f"{algorithm}.csv"
            run_cli(
                "--input", market_file, "--minsup", "2/3", "--sites", "2",
                "--algorithm", algorithm, "--out", tmp_path / "r.json",
                "--metrics", metrics,
            )
            rows[algorithm] = metrics.read_text().splitlines()[1:]
        assert len(rows["improved"]) == 3
        assert len(rows["cd"]) == 2
        assert len(rows["sequential"]) == 2

    def test_sequential_metrics_lines(self, market_file, tmp_path):
        metrics = tmp_path / "m.csv"
        run_cli(
            "--input", market_file, "--minsup", "2/3", "--algorithm", "sequential",
            "--out", tmp_path / "r.json", "--metrics", metrics,
        )
        assert metrics.read_text().splitlines()[1:] == [
            "sequential,1,6,0,0,0,0,4,",
            "sequential,2,6,0,0,0,0,3,",
        ]

    def test_import_leaves_out_scipy(self):
        src = Path(distmine.__file__).resolve().parents[1]
        code = "import sys, distmine.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_trace_written(self, market_file, tmp_path):
        trace = tmp_path / "t.jsonl"
        run_cli(
            "--input", market_file, "--minsup", "2/3", "--sites", "2",
            "--algorithm", "improved", "--out", tmp_path / "r.json",
            "--trace", trace,
        )
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert {r["type"] for r in records} <= {
            "LocalReport", "CountRequest", "CountResponse", "GlobalResult",
        }

    def test_deterministic_outputs(self, market_file, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / f"{name}.json"
            metrics = tmp_path / f"{name}.csv"
            trace = tmp_path / f"{name}.jsonl"
            run_cli(
                "--input", market_file, "--minsup", "2/3", "--sites", "2",
                "--algorithm", "improved", "--out", out,
                "--metrics", metrics, "--trace", trace,
            )
            outs.append((out.read_bytes(), metrics.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_synthetic_source(self, tmp_path, capsys):
        status = run_cli(
            "--synthetic", "T=3,I=12,D=60,seed=5", "--minsup", "0.2",
            "--sites", "3", "--algorithm", "improved",
        )
        assert status == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["db_size"] == 60

    @pytest.mark.parametrize(
        "algorithm, digest",
        [
            ("improved", "e56a9f907d7db3836522bac9754c2a48798952d447a35502d4885e37d8dd872a"),
            ("cd", "f376e37aeb5a0ecb36ab1440aae07d9bedc96cc55f8711fa5ea7a384434a53d8"),
            ("sequential", "b23be5ddd040878e227daedd3b413d5660d2d8f612a260f99db9d1e347abee32"),
        ],
        ids=["improved", "cd", "sequential"],
    )
    def test_pinned_output_bytes(self, algorithm, digest, tmp_path):
        # SHA-256 of result JSON + metrics CSV + trace, concatenated
        paths = [tmp_path / name for name in ("r.json", "m.csv", "t.jsonl")]
        status = run_cli(
            *PINNED_RUN, "--algorithm", algorithm,
            "--out", paths[0], "--metrics", paths[1], "--trace", paths[2],
        )  # fmt: skip
        assert status == 0
        data = b"".join(p.read_bytes() for p in paths)
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("extra", [("--algorithm", "improved"), ("--algorithm", "cd")])
    def test_delivered_copies_change_no_output_byte(self, extra, tmp_path):
        # Receivers that act on equal copies with fresh arrays write the
        # same result JSON, metrics CSV and trace as receivers of the sent
        # objects.
        copies = []

        def copy(src, dst, msg):
            delivered = remade(msg)
            assert delivered == msg
            shared = [np.shares_memory(getattr(delivered, f), getattr(msg, f)) for f in msg.BODY]
            assert not any(shared)
            copies.append(delivered)
            return delivered

        outputs = []
        for hook in (contextlib.nullcontext(), delivering(copy)):
            paths = [tmp_path / f"{len(outputs)}{name}" for name in ("r.json", "m.csv", "t.jsonl")]
            with hook:
                status = run_cli(
                    *PINNED_RUN, *extra,
                    "--out", paths[0], "--metrics", paths[1], "--trace", paths[2],
                )  # fmt: skip
            assert status == 0
            outputs.append(b"".join(p.read_bytes() for p in paths))
        assert outputs[0] == outputs[1]
        assert len(copies) == len(paths[2].read_text().splitlines()) > 0

    @pytest.mark.parametrize("algorithm", ["improved", "cd", "sequential"])
    def test_runs_without_the_tuple_view(self, algorithm, market_file, monkeypatch, capsys):
        # Ingest, partition and mining work on the CSR arrays alone.
        def no_view(db):
            raise AssertionError("TransactionDb.transactions was read")

        monkeypatch.setattr(distmine.TransactionDb, "transactions", property(no_view))
        for source in (("--input", market_file), ("--synthetic", "T=3,I=12,D=60,seed=5")):
            for part in ("contiguous", "roundrobin", "random:3"):
                status = run_cli(
                    *source, "--minsup", "0.3", "--sites", "3", "--partition", part,
                    "--algorithm", algorithm,
                )  # fmt: skip
                assert status == 0
        assert capsys.readouterr().out.count('"frequent"') == 6

    @pytest.mark.parametrize("algorithm", ["improved", "cd", "sequential"])
    def test_runs_without_the_message_tuple_views(
        self, algorithm, market_file, monkeypatch, capsys
    ):
        # Every miner keeps its itemsets as int64 rows from candidate
        # generation to the result: no tuple view of a message is read and
        # the tuple wrapper of the candidate join is never called.
        def no_view(msg):
            raise AssertionError(f"{type(msg).__name__}.itemsets was read")

        def no_tuples(prev_frequent):
            raise AssertionError("miner.apriori_gen was called")

        monkeypatch.setattr(distmine.CountRequest, "itemsets", property(no_view))
        monkeypatch.setattr(distmine.miner, "apriori_gen", no_tuples)
        for source in (("--input", market_file), ("--synthetic", "T=3,I=12,D=60,seed=5")):
            for part in ("contiguous", "roundrobin", "random:3"):
                status = run_cli(
                    *source, "--minsup", "0.3", "--sites", "3", "--partition", part,
                    "--algorithm", algorithm,
                )  # fmt: skip
                assert status == 0
        assert capsys.readouterr().out.count('"frequent"') == 6

    @pytest.mark.parametrize("algorithm", ["improved", "cd", "sequential"])
    def test_writes_json_without_the_result_tuple_view(
        self, algorithm, market_file, tmp_path, monkeypatch, capsys
    ):
        # The result JSON is written from each level's arrays: the tuple
        # view of the result is never built.
        def no_view(result):
            raise AssertionError("MiningResult.frequent was read")

        monkeypatch.setattr(distmine.MiningResult, "frequent", property(no_view))
        labels = tmp_path / "labels.json"
        labels.write_text(MARKET_LABELS)
        market = ("--input", market_file, "--minsup", "2/3", "--sites", "2")
        for source in (market, PINNED_RUN):
            for extra in ((), ("--labels", labels)):
                assert run_cli(*source, "--algorithm", algorithm, *extra) == 0
        sizes = [len(json.loads(line)["frequent"]) for line in capsys.readouterr().out.splitlines()]
        assert sizes[:2] == [7, 7] and sizes[2] == sizes[3] > 7

    def test_pinned_run_polls_and_prunes(self):
        db = distmine.generate_synthetic(500, 20, 4, seed=4)
        parts = distmine.partition(db, distmine.PartitionSpec(5, "random", 7))
        run = distmine.ImprovedRun(parts, "0.05")
        run.run()
        polls = sum(rec.type == "CountRequest" for rec in run.log.trace)
        assert (polls, sum(map(len, run.maxcount_pruned))) == (13, 60)

    @pytest.mark.parametrize("algorithm", ["improved", "cd"])
    def test_level_metrics_count_the_trace(self, algorithm):
        # Each level's messages and bytes are its trace records' count and
        # byte sum, and every record belongs to a level with a metrics row.
        args = _build_parser().parse_args([*PINNED_RUN, "--algorithm", algorithm])
        _check_args(args)
        db = distmine.generate_synthetic(*args.synthetic)
        _, metrics, trace = _execute(algorithm, db, args, args.minsup)
        assert [m.k for m in metrics] == sorted({rec.k for rec in trace})
        for m in metrics:
            level = [rec.bytes for rec in trace if rec.k == m.k]
            assert (m.messages_sent, m.payload_bytes) == (len(level), sum(level))


def pinned_improved_run() -> distmine.ImprovedRun:
    """The improved run that ``main`` builds for PINNED_RUN, not yet run."""
    args = _build_parser().parse_args([*PINNED_RUN, "--algorithm", "improved"])
    _check_args(args)
    db = distmine.generate_synthetic(*args.synthetic)
    parts = distmine.partition(db, distmine.PartitionSpec(args.sites, *args.partition))
    return distmine.ImprovedRun(parts, args.minsup)


class TestMutatedPollAnswers:
    """Poll-answer entries of the mutation catalogue: each changes one
    CountResponse of PINNED_RUN's improved run on its way to the center,
    which must refuse it. Level 1 polls sites 2 and 3, one itemset each;
    level 2 polls every site, site 0 first, for 11 itemsets."""

    @staticmethod
    def refusal(change, nth):
        """The ProtocolError text when the run's nth CountResponse (from 0)
        is replaced in flight by ``change(resp, run, earlier)``, where
        ``earlier`` holds the responses before it; also that response and
        every (site id, CountRequest) delivered until the error."""
        run, requests, responses = pinned_improved_run(), [], []

        def mutate(src, dst, msg):
            if isinstance(msg, CountRequest):
                requests.append((int(dst.removeprefix("site:")), msg))
            elif isinstance(msg, CountResponse):
                responses.append(msg)
                if len(responses) == nth + 1:
                    return change(msg, run, responses[:-1])
            return msg

        with delivering(mutate), pytest.raises(ProtocolError) as refused:
            run.run()
        return str(refused.value), responses[nth], requests

    def test_dropped_count(self):
        def drop(resp, run, _):
            return remade(resp, supports=resp.supports[:-1])

        error, resp, _ = self.refusal(drop, 2)
        m = resp.n_itemsets
        assert (resp.k, m) == (2, 11)
        assert error == f"site {resp.site_id} answered {m - 1} counts at level 2, asked for {m}"

    def test_added_count(self):
        def add(resp, run, _):
            return remade(resp, supports=np.append(resp.supports, 0))

        error, resp, _ = self.refusal(add, 2)
        m = resp.n_itemsets
        assert error == f"site {resp.site_id} answered {m + 1} counts at level 2, asked for {m}"

    def test_count_at_the_site_threshold(self):
        thresholds = []

        def push(resp, run, _):
            thresholds.append(run.sites[resp.site_id].site_threshold)
            supports = resp.supports.copy()
            supports[-1] = thresholds[0]
            return remade(resp, supports=supports)

        error, resp, requests = self.refusal(push, 2)
        i, (t,) = resp.site_id, thresholds
        (asked,) = [req for site, req in requests if site == i and req.k == 2]
        itemset = tuple(asked.rows[-1].tolist())
        bounds = f"outside [0, {t - 1}] for itemset {itemset} at level 2"
        assert error == f"site {i} answered count {t} {bounds}"

    def test_second_response(self):
        # level 1's second answer, from site 3, arrives as site 2's again
        def as_first(resp, run, earlier):
            return remade(resp, site_id=earlier[0].site_id)

        error, resp, _ = self.refusal(as_first, 1)
        assert (resp.site_id, resp.k) == (3, 1)
        assert error == "site 2 answered level 1 twice"

    def test_response_from_a_site_not_polled(self):
        # level 1's first answer, from site 2, arrives as site 0's
        error, resp, requests = self.refusal(lambda r, run, _: remade(r, site_id=0), 0)
        assert (resp.site_id, resp.k) == (2, 1)
        assert 0 not in [site for site, req in requests if req.k == 1]
        assert error == "site 0 answered unrequested level 1 itemsets"


class TestErrors:
    def test_no_source(self, capsys):
        assert run_cli("--minsup", "0.5", "--algorithm", "improved") == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_algorithm(self, market_file, capsys):
        assert run_cli("--input", market_file, "--minsup", "0.5") == 2

    def test_unknown_algorithm(self, market_file, capsys):
        assert (
            run_cli(
                "--input", market_file, "--minsup", "0.5", "--algorithm", "fpgrowth"
            )
            == 2
        )

    def test_bad_minsup(self, market_file, capsys):
        assert (
            run_cli(
                "--input", market_file, "--minsup", "5", "--algorithm", "sequential"
            )
            == 2
        )

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("1 2\noops\n")
        status = run_cli(
            "--input", bad, "--minsup", "0.5", "--algorithm", "sequential"
        )
        assert status == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 99999999999999999999999\n", 1),
            ("1 2\n3 9223372036854775808\n", 2),
            ("1\n\n\u00a05 00000000000000000000009223372036854775808\n", 3),
        ],
    )
    def test_item_id_beyond_int64(self, tmp_path, capsys, text, line):
        bad = tmp_path / "big.dat"
        bad.write_text(text, encoding="utf-8")
        status = run_cli("--input", bad, "--minsup", "0.5", "--algorithm", "sequential")
        assert status == 3
        assert f"parse error: line {line}: item 9" in capsys.readouterr().err

    def test_colocated_flag_is_gone(self, market_file, capsys):
        # The metrics count every message; argparse rejects the old switch.
        with pytest.raises(SystemExit) as stop:
            run_cli(
                "--input", market_file, "--minsup", "0.5", "--algorithm", "improved",
                "--count-colocated-messages", "false",
            )  # fmt: skip
        assert stop.value.code == 2
        assert "--count-colocated-messages" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        status = run_cli(
            "--input", tmp_path / "nope.dat", "--minsup", "0.5",
            "--algorithm", "sequential",
        )
        assert status == 4
        assert "i/o error" in capsys.readouterr().err

    def test_bad_labels_json(self, market_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text("{not json")
        status = run_cli(
            "--input", market_file, "--minsup", "0.5",
            "--algorithm", "sequential", "--labels", labels,
        )
        assert status == 3

    def test_bad_synthetic_spec(self, capsys):
        assert (
            run_cli(
                "--synthetic", "T=3,I=12", "--minsup", "0.2",
                "--algorithm", "sequential",
            )
            == 2
        )
        # values are ASCII digits only, no field may repeat, and
        # generate_synthetic's own limits are config errors
        for spec in (
            "T=4,T=5,I=20,D=100,seed=1",
            "T=4,I=+20,D=100",
            "T=4,I=20,D=1_00",
            "T=4,I=20,D=100,seed=-1",
            "T=4,I=٢٠,D=100",
            "T=0,I=12,D=50",
            "T=13,I=12,D=50",
            "T=1,I=0,D=50",
        ):
            status = run_cli(
                "--synthetic", spec, "--minsup", "0.2", "--algorithm", "sequential"
            )
            assert status == 2, spec
            assert capsys.readouterr().err.startswith("config error: "), spec

    @pytest.mark.parametrize(
        "extra",
        [
            ("--minsup", "5", "--algorithm", "sequential"),
            ("--minsup", "0.5", "--algorithm", "improved", "--sites", "4"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sites", "2",
             "--partition", "random:-1"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sweep-minsups", "0.5,7"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sites", "+2"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sites", "0_2"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sites", "\u0663"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sweep-sizes", "+2"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sweep-sizes", "1_0"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sweep-sizes", "\u0663"),
            ("--minsup", "0.5", "--algorithm", "cd", "--sweep-sizes", "10,10"),
        ],
    )  # fmt: skip
    def test_bad_user_values_are_config_errors(self, extra, capsys):
        # a 3-transaction database, so 4 sites are too many
        assert run_cli("--synthetic", "T=2,I=5,D=3,seed=1", *extra) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_internal_value_error_propagates(self, market_file, monkeypatch):
        # a ValueError from inside the program is a bug, not a config error
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(distmine.cli, "run_sequential", broken)
        with pytest.raises(ValueError, match="internal"):
            run_cli("--input", market_file, "--minsup", "0.5", "--algorithm", "sequential")

    def test_non_utf8_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_bytes(b"1 2\n\xff 3\n")
        status = run_cli("--input", bad, "--minsup", "0.5", "--algorithm", "sequential")
        assert status == 3
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "labels_json, key",
        [
            ('{"+1":"A"}', "+1"),
            ('{" 2 ":"A"}', " 2 "),
            ('{"\u0663":"A"}', "\u0663"),
            ('{"1_0":"A"}', "1_0"),
            ('{"-1":"A"}', "-1"),
            ('{"1":"A","01":"B"}', "01"),
            ('{"1":"A","1":"B"}', "1"),
            ('{"1":"A","2":null}', "2"),
            ('{"1":"A","2":7}', "2"),
            ('{"1":"A","2":{"a":1}}', "2"),
            ('{"1":"A","2":["A"]}', "2"),
        ],
    )
    def test_bad_labels_key(self, market_file, tmp_path, capsys, labels_json, key):
        labels = tmp_path / "labels.json"
        labels.write_text(labels_json, encoding="utf-8")
        status = run_cli(
            "--input", market_file, "--minsup", "0.5",
            "--algorithm", "sequential", "--labels", labels,
        )  # fmt: skip
        assert status == 3
        assert repr(key) in capsys.readouterr().err

    def test_bad_partition_spec(self, market_file, capsys):
        assert (
            run_cli(
                "--input", market_file, "--minsup", "0.5",
                "--algorithm", "improved", "--partition", "contiguous:7",
            )
            == 2
        )


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        metrics = tmp_path / "sweep.csv"
        status = run_cli(
            "--synthetic", "T=3,I=12,D=200,seed=5", "--sites", "2",
            "--algorithm", "improved,cd",
            "--sweep-minsups", "0.6,0.4,0.2", "--sweep-sizes", "100,200",
            "--metrics", metrics,
        )
        assert status == 0
        lines = metrics.read_text().splitlines()
        assert lines[0] == (
            "algorithm,minsup,size,round,candidates,candidates_pruned_local,"
            "messages,bytes,llk_total,lk_size,wall_ms"
        )
        summaries = [l for l in lines[1:] if ",summary," in l]
        assert len(summaries) == 2 * 3 * 2  # algorithms x minsups x sizes
        for line in summaries:
            assert line.split(",")[-1]  # wall_ms filled in

    def test_candidates_grow_as_minsup_drops(self, tmp_path):
        metrics = tmp_path / "sweep.csv"
        run_cli(
            "--synthetic", "T=4,I=15,D=300,seed=8", "--sites", "2",
            "--algorithm", "improved",
            "--sweep-minsups", "0.6,0.4,0.2",
            "--metrics", metrics,
        )
        totals = {}
        for line in metrics.read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[3] == "summary":
                totals[cells[1]] = int(cells[4])
        assert totals["0.6"] <= totals["0.4"] <= totals["0.2"]

    def test_sweep_requires_synthetic(self, market_file, capsys):
        status = run_cli(
            "--input", market_file, "--algorithm", "improved",
            "--sweep-minsups", "0.5,0.4",
        )
        assert status == 2

    def test_sweep_sizes_share_prefixes(self, tmp_path):
        # the sweep mines prefixes of one seeded database
        from distmine import generate_synthetic

        small = generate_synthetic(100, 12, 3, seed=5)
        large = generate_synthetic(200, 12, 3, seed=5)
        assert large.transactions[:100] == small.transactions

    def test_sweep_generates_once(self, tmp_path, monkeypatch):
        calls = []
        real = distmine.cli.generate_synthetic

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(distmine.cli, "generate_synthetic", counting)
        status = run_cli(
            "--synthetic", "T=3,I=12,D=50,seed=5", "--sites", "2",
            "--algorithm", "improved,cd,sequential",
            "--sweep-minsups", "0.6,0.4", "--sweep-sizes", "100,200,150",
            "--metrics", tmp_path / "sweep.csv",
        )
        assert status == 0
        assert calls == [(200, 12, 3, 5)]

    def test_pinned_sweep_bytes(self, tmp_path):
        # SHA-256 of the sweep CSV with its last column (wall_ms) cut
        metrics = tmp_path / "sweep.csv"
        status = run_cli(
            "--synthetic", "T=4,I=20,D=500,seed=3",
            "--algorithm", "improved,cd,sequential",
            "--sweep-minsups", "0.1,0.05", "--sweep-sizes", "200,500",
            "--sites", "2", "--metrics", metrics,
        )  # fmt: skip
        assert status == 0
        lines = metrics.read_text().splitlines()
        cut = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
        assert hashlib.sha256(cut.encode()).hexdigest() == (
            "b42b9704aca5d282a034460961b4741bf4796775bc1af26d63ef8c40d8a3a137"
        )

    @pytest.mark.parametrize("flag", ["--out", "--trace", "--labels"])
    def test_sweep_rejects_run_only_flags(self, flag, tmp_path, capsys):
        path = tmp_path / "nonexistent"
        status = run_cli(
            "--synthetic", "T=3,I=10,D=200,seed=1", "--sites", "2",
            "--algorithm", "improved", "--sweep-minsups", "0.2", flag, path,
        )  # fmt: skip
        assert status == 2
        assert f"config error: sweep mode takes no {flag}" in capsys.readouterr().err
        assert not path.exists()

    def test_sweep_rejects_negative_size(self, tmp_path):
        status = run_cli(
            "--synthetic", "T=3,I=12,D=50,seed=5", "--algorithm", "cd",
            "--sweep-minsups", "0.5", "--sweep-sizes", "100,-1",
            "--metrics", tmp_path / "sweep.csv",
        )
        assert status == 2
