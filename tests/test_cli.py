"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "FB237"
        assert args.method == "HaLk"
        assert args.epochs == 150

    def test_answer_requires_sparql(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["answer"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--method", "TransE"])

    @pytest.mark.parametrize("command, flag", [
        ("serve", "--repeat"), ("serve", "--batch-size"),
        ("serve", "--workers"), ("serve", "--top-k"),
        ("trace", "--workers"), ("trace", "--top-k"),
        ("answer", "--top-k")])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_below_one_exit_before_starting(self, command, flag,
                                                   value, tmp_path,
                                                   capsys):
        """A count the runtime cannot serve is a usage error (exit 2),
        not a traceback after the runtime started."""
        extra = ["--sparql", "SELECT ?x WHERE { e0 rotation_0 ?x . }"] \
            if command == "answer" else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--model-dir", str(tmp_path), *extra,
                  f"{flag}={value}"])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        for name in ("FB15k", "FB237", "NELL"):
            assert name in out

    def test_train_evaluate_answer_roundtrip(self, tmp_path, capsys):
        common = ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        assert main(["train", *common, "--epochs", "3",
                     "--queries", "10"]) == 0
        saved = list(tmp_path.glob("*.npz"))
        assert len(saved) == 1
        meta = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert meta["method"] == "HaLk"

        assert main(["evaluate", *common, "--queries", "3"]) == 0
        out = capsys.readouterr().out
        assert "MRR" in out and "average" in out

    def test_answer_with_trained_model(self, tmp_path, capsys):
        from repro.kg import load_dataset
        common = ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        main(["train", *common, "--epochs", "2", "--queries", "5"])
        capsys.readouterr()
        splits = load_dataset("FB237", scale=0.3, seed=0)
        head, rel, _ = sorted(splits.train.triples)[0]
        sparql = (f"SELECT ?x WHERE {{ {splits.train.entity_names[head]} "
                  f"{splits.train.relation_names[rel]} ?x }}")
        assert main(["answer", *common, "--sparql", sparql,
                     "--top-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "computation graph" in out

    def test_evaluate_without_model_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no trained model"):
            main(["evaluate", "--dataset", "FB237", "--method", "HaLk",
                  "--dim", "8", "--scale", "0.3",
                  "--model-dir", str(tmp_path)])

    def test_dim_mismatch_detected(self, tmp_path):
        common = ["--dataset", "FB237", "--dim", "8", "--scale", "0.3",
                  "--model-dir", str(tmp_path)]
        main(["train", *common, "--epochs", "2", "--queries", "5"])
        with pytest.raises(SystemExit, match="different"):
            main(["evaluate", "--dataset", "FB237", "--dim", "16",
                  "--scale", "0.3", "--model-dir", str(tmp_path)])

    def test_baseline_method_trains(self, tmp_path):
        assert main(["train", "--dataset", "FB237", "--method", "NewLook",
                     "--dim", "8", "--scale", "0.3",
                     "--model-dir", str(tmp_path), "--epochs", "2",
                     "--queries", "5"]) == 0


class TestModelMetaValidation:
    def _train(self, tmp_path, method="HaLk"):
        common = ["--dataset", "FB237", "--method", method, "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        main(["train", *common, "--epochs", "2", "--queries", "5"])
        return common

    def test_method_mismatch_detected(self, tmp_path):
        import shutil
        self._train(tmp_path, method="HaLk")
        # simulate weights copied to another method's slot: the meta still
        # says HaLk, so loading as ConE must fail with a clear message
        shutil.copy(tmp_path / "FB237_HaLk.npz", tmp_path / "FB237_ConE.npz")
        shutil.copy(tmp_path / "FB237_HaLk.json", tmp_path / "FB237_ConE.json")
        with pytest.raises(SystemExit, match="method='HaLk'"):
            main(["evaluate", "--dataset", "FB237", "--method", "ConE",
                  "--dim", "8", "--scale", "0.3",
                  "--model-dir", str(tmp_path)])

    def test_dataset_mismatch_detected(self, tmp_path):
        import shutil
        self._train(tmp_path)
        shutil.copy(tmp_path / "FB237_HaLk.npz", tmp_path / "FB15k_HaLk.npz")
        shutil.copy(tmp_path / "FB237_HaLk.json", tmp_path / "FB15k_HaLk.json")
        with pytest.raises(SystemExit, match="dataset='FB237'"):
            main(["evaluate", "--dataset", "FB15k", "--method", "HaLk",
                  "--dim", "8", "--scale", "0.3",
                  "--model-dir", str(tmp_path)])


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.repeat == 3
        assert args.batch_size == 64
        assert not args.stats
        assert not args.gateway
        assert args.tenant is None and args.tenant_file is None

    def test_serve_reports_stats(self, tmp_path, capsys):
        common = ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        assert main(["serve", *common, "--train-if-missing",
                     "--train-epochs", "2", "--train-queries", "5",
                     "--queries", "12", "--repeat", "2", "--top-k", "3",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "pass 1:" in out and "pass 2:" in out
        assert "answer_cache_hit_rate" in out
        assert "p50" in out and "p99" in out
        assert "answer_cache" in out

    def test_serve_explicit_sparql(self, tmp_path, capsys):
        from repro.kg import load_dataset
        common = ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        main(["train", *common, "--epochs", "2", "--queries", "5"])
        capsys.readouterr()
        splits = load_dataset("FB237", scale=0.3, seed=0)
        head, rel, _ = sorted(splits.train.triples)[0]
        sparql = (f"SELECT ?x WHERE {{ {splits.train.entity_names[head]} "
                  f"{splits.train.relation_names[rel]} ?x }}")
        assert main(["serve", *common, "--sparql", sparql,
                     "--repeat", "1", "--top-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "1 queries" in out

    def test_serve_with_gateway_tenants(self, tmp_path, capsys):
        common = ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        assert main(["serve", *common, "--train-if-missing",
                     "--train-epochs", "2", "--train-queries", "5",
                     "--queries", "6", "--repeat", "1", "--top-k", "3",
                     "--tenant", "web:500:64:3",
                     "--tenant", "batchers:::1"]) == 0
        out = capsys.readouterr().out
        assert "gateway: admission control on" in out
        assert "web" in out and "batchers" in out

    def test_serve_plan_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--plan"])

    def test_serve_lazy_slabs_flag_is_gone(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--lazy-slabs"])
        assert exit_info.value.code == 2

    def test_serve_refuses_baseline_in_one_line(self, tmp_path):
        common = ["--dataset", "FB237", "--method", "ConE", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        main(["train", *common, "--epochs", "1", "--queries", "5"])
        with pytest.raises(SystemExit, match="no plan_backend"):
            main(["serve", *common])

    def test_serve_accepts_an_ablation(self, tmp_path, capsys):
        """A Table V variant is a HaLk model holding one other operator:
        it has a plan backend like any HaLk model, so it serves."""
        common = ["--dataset", "FB237", "--method", "HaLk-V2", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        assert main(["serve", *common, "--train-if-missing",
                     "--train-epochs", "1", "--train-queries", "5",
                     "--queries", "6", "--repeat", "1", "--top-k", "3"]) == 0
        assert "pass 1: 6 queries" in capsys.readouterr().out

    def test_serve_without_model_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no trained model"):
            main(["serve", "--dataset", "FB237", "--method", "HaLk",
                  "--dim", "8", "--scale", "0.3",
                  "--model-dir", str(tmp_path)])


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.structure == "3p"
        assert args.out == "trace.json"

    def test_trace_emits_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        common = ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        assert main(["trace", *common, "--train-if-missing",
                     "--train-epochs", "2", "--train-queries", "5",
                     "--structure", "3p", "--top-k", "3",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        payload = json.loads(out_path.read_text())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        # acceptance: a 3-hop query covers at least 5 distinct stages
        assert len({e["name"] for e in events}) >= 5
        # tracing must be switched back off after the command
        from repro import obs
        assert not obs.is_enabled()

    def test_trace_sparql_with_profile(self, tmp_path, capsys):
        """``--sparql`` traces the engine path; ``--profile`` (the
        Tensor-patching profiler's flag) is gone — ``cli get prof`` and the
        ``plan.stage`` spans attribute op cost instead."""
        from repro.kg import load_dataset
        common = ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        main(["train", *common, "--epochs", "2", "--queries", "5"])
        capsys.readouterr()
        splits = load_dataset("FB237", scale=0.3, seed=0)
        head, rel, _ = sorted(splits.train.triples)[0]
        sparql = (f"SELECT ?x WHERE {{ {splits.train.entity_names[head]} "
                  f"{splits.train.relation_names[rel]} ?x }}")
        assert main(["trace", *common, "--sparql", sparql,
                     "--out", ""]) == 0
        out = capsys.readouterr().out
        assert "sparql.answer" in out
        assert "fwd ms" not in out  # no per-op profiler table any more
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", *common, "--sparql", sparql, "--profile"])
        assert excinfo.value.code == 2
        assert "--profile" in capsys.readouterr().err

class TestCheckpointResume:
    def _common(self, model_dir):
        return ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                "--scale", "0.3", "--model-dir", str(model_dir),
                "--queries", "5"]

    def _epoch_losses(self, telemetry_path):
        events = [json.loads(line)
                  for line in telemetry_path.read_text().splitlines()]
        return {e["epoch"]: e["loss"] for e in events
                if e["event"] == "epoch"}

    def test_checkpoint_every_writes_resumable_files(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpt"
        assert main(["train", *self._common(tmp_path), "--epochs", "4",
                     "--checkpoint-every", "2",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        from repro.ckpt import CheckpointManager, load_checkpoint
        manager = CheckpointManager(ckpt_dir)
        latest = manager.latest()
        assert latest is not None
        checkpoint = load_checkpoint(latest)
        assert checkpoint.manifest.meta["epoch"] == 4
        assert checkpoint.manifest.meta["dataset"] == "FB237"
        assert "trainer" in checkpoint.state  # resumable, not model-only

    def test_resume_continues_same_loss_trajectory(self, tmp_path, capsys):
        """CLI acceptance: interrupt at epoch 3, resume to 6, and the
        per-epoch losses match an uninterrupted 6-epoch run exactly."""
        full_log = tmp_path / "full.jsonl"
        assert main(["train", *self._common(tmp_path / "full"),
                     "--epochs", "6", "--telemetry", str(full_log)]) == 0

        ckpt_dir = tmp_path / "ckpt"
        part = self._common(tmp_path / "part")
        assert main(["train", *part, "--epochs", "3",
                     "--checkpoint-every", "1",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        resumed_log = tmp_path / "resumed.jsonl"
        capsys.readouterr()
        assert main(["train", *part, "--epochs", "6", "--resume",
                     "--checkpoint-dir", str(ckpt_dir),
                     "--telemetry", str(resumed_log)]) == 0
        assert "resumed from" in capsys.readouterr().out

        full = self._epoch_losses(full_log)
        resumed = self._epoch_losses(resumed_log)
        assert sorted(resumed) == [4, 5, 6]  # continued, not restarted
        for epoch in (4, 5, 6):
            assert resumed[epoch] == full[epoch]  # bit-for-bit

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path, capsys):
        assert main(["train", *self._common(tmp_path), "--epochs", "2",
                     "--resume",
                     "--checkpoint-dir", str(tmp_path / "empty")]) == 0
        assert "starting fresh" in capsys.readouterr().out

    def test_resume_rejects_mismatched_run(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpt"
        assert main(["train", *self._common(tmp_path), "--epochs", "2",
                     "--checkpoint-every", "1",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        with pytest.raises(SystemExit, match="dim"):
            main(["train", "--dataset", "FB237", "--method", "HaLk",
                  "--dim", "16", "--scale", "0.3",
                  "--model-dir", str(tmp_path), "--queries", "5",
                  "--epochs", "3", "--resume",
                  "--checkpoint-dir", str(ckpt_dir)])


class TestTelemetry:
    def test_train_telemetry_stream(self, tmp_path, capsys):
        telemetry = tmp_path / "train.jsonl"
        common = ["--dataset", "FB237", "--method", "HaLk", "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        assert main(["train", *common, "--epochs", "3", "--queries", "5",
                     "--telemetry", str(telemetry)]) == 0
        events = [json.loads(line)
                  for line in telemetry.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "train_begin" and kinds[-1] == "train_end"
        assert kinds.count("epoch") == 3


class TestExplainCommand:
    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.structure is None
        assert args.count == 1
        assert not args.json and not args.no_dnf

    def test_explain_sampled_batch_renders_plan(self, capsys):
        assert main(["explain", "--dataset", "FB237", "--scale", "0.3",
                     "--structure", "2i", "--structure", "2i",
                     "--structure", "3p"]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "fused stages:" in out
        assert "q0:" in out
        # the second 2i shares the first one's template cache entry
        assert "[plan-cache hit]" in out
        assert "[plan-cache miss]" in out

    def test_explain_json_is_machine_readable(self, capsys):
        assert main(["explain", "--dataset", "FB237", "--scale", "0.3",
                     "--structure", "2i", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_queries"] == 1
        assert payload["ops_total"] == len(payload["ops"]) \
            + payload["ops_saved"]
        assert len(payload["queries"]) == 1
        kinds = {op["kind"] for op in payload["ops"]}
        assert "rank" in kinds

    def test_explain_shared_sparql_marks_cse(self, capsys):
        from repro.kg import load_dataset
        splits = load_dataset("FB237", scale=0.3, seed=0)
        head, rel, _ = sorted(splits.train.triples)[0]
        entity = splits.train.entity_names[head]
        relation = splits.train.relation_names[rel]
        sparql = f"SELECT ?x WHERE {{ {entity} {relation} ?x }}"
        # the same query twice: the whole body is shared, only ranking
        # duplicates
        assert main(["explain", "--dataset", "FB237", "--scale", "0.3",
                     sparql, sparql]) == 0
        out = capsys.readouterr().out
        assert "shared" in out
        assert "saved" in out


class TestGenkgCommand:
    FILES = ("entities.txt", "relations.txt", "train.tsv", "valid.tsv",
             "test.tsv", "meta.json")

    def test_exact_flag_is_gone(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["genkg", "out", "--exact"])
        assert exit_info.value.code == 2

    def test_same_seed_writes_identical_loadable_splits(self, tmp_path,
                                                        capsys):
        import re

        from repro.kg import load_splits
        runs = []
        for name in ("one", "two"):
            assert main(["genkg", str(tmp_path / name), "--entities", "300",
                         "--seed", "5"]) == 0
            runs.append(capsys.readouterr().out)
        for file in self.FILES:
            assert ((tmp_path / "one" / file).read_bytes()
                    == (tmp_path / "two" / file).read_bytes()), file

        meta = json.loads((tmp_path / "one" / "meta.json").read_text())
        printed = {split: int(count.replace(",", "")) for split, count
                   in re.findall(r"^\s+(\w+):\s+([\d,]+) triples$",
                                 runs[0], flags=re.M)}
        assert printed == meta["counts"]
        assert meta["num_entities"] == 300

        splits = load_splits(tmp_path / "one", name="genkg")
        assert splits.test.num_entities == 300
        for split in ("train", "valid", "test"):
            assert getattr(splits, split).num_triples == meta["counts"][split]
        assert splits.train.is_subgraph_of(splits.valid)
        assert splits.valid.is_subgraph_of(splits.test)


class TestFlightCommand:
    def test_trace_column_marks_retained_requests(self, monkeypatch,
                                                  capsys):
        """The flight table says which requests have a retained tree,
        i.e. which ids ``/debug/trace/<id>`` answers."""
        import repro.cli as cli

        records = [
            {"request_id": "r1-00000002", "source": "model",
             "latency_ms": 80.0, "trace_retained": True},
            {"request_id": "r1-00000001", "source": "answer_cache",
             "latency_ms": 0.1, "trace_retained": False},
        ]
        monkeypatch.setattr(cli, "_fetch_json", lambda *_, **__: {
            "records": records, "total_recorded": 2,
            "traces_retained": 1})
        assert main(["get", "flight", "127.0.0.1:1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split()
        column = header.index("trace")
        rows = {line.split()[0]: line.split()[column]
                for line in lines[2:]}
        assert rows == {"r1-00000002": "y", "r1-00000001": "-"}


class TestGetCommand:
    @pytest.mark.parametrize("old", ["stats", "flight", "slo", "prof",
                                     "mem"])
    def test_old_reader_commands_are_gone(self, old, capsys):
        """The five fetch-and-print commands are one ``get``; their old
        names are usage errors."""
        with pytest.raises(SystemExit) as exit_info:
            main([old, "127.0.0.1:1"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_query_words_reach_the_server_unchanged(self, monkeypatch):
        import repro.cli as cli

        fetched = []
        monkeypatch.setattr(cli, "_fetch_json", lambda url, timeout: (
            fetched.append((url, timeout)) or {}))
        main(["get", "flight", "127.0.0.1:9105", "n=20", "min_ms=50",
              "tenant=a", "request_id=r1-00000002"])
        main(["get", "prof", "http://h:1/", "seconds=30", "role=shard0",
              "--timeout", "2"])
        assert fetched == [
            ("http://127.0.0.1:9105/debug/flight?n=20&min_ms=50&tenant=a"
             "&request_id=r1-00000002", 5.0),
            # the profile window holds the reply back for 30 s
            ("http://h:1/debug/prof?seconds=30&role=shard0", 32.0)]

    def test_a_word_without_equals_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["get", "flight", "127.0.0.1:1", "n"])
        assert exit_info.value.code == 2
        assert "expected name=value" in capsys.readouterr().err

    def test_prof_renders_top_frames_and_plan_ops_and_saves(
            self, monkeypatch, tmp_path, capsys):
        """``get prof --out`` prints the frames and plan-op seconds and
        saves the payload ``diff`` reads back."""
        import repro.cli as cli

        payload = {
            "merged": {"stacks": {"serve@1;main;a.py:hot": 30,
                                  "serve@1;main;b.py:cold": 10},
                       "samples": 40, "duration_s": 1.0, "hz": 67.0,
                       "pid": 1, "role": "merged", "overhead_ratio": 0.01},
            "roles": ["serve"], "window_seconds": 3.0,
            "effective_hz": 66.2, "overhead_ratio": 0.0123,
            "plan_ops": {"project": 1.5, "anchor": 0.5}}
        monkeypatch.setattr(cli, "_fetch_json", lambda *_: payload)
        saved = tmp_path / "p.json"
        assert main(["get", "prof", "h:1", "--out", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "roles: serve  samples: 40 (3s window)  rate: 66.2Hz  " \
               "overhead: 1.23%" in out
        assert "a.py:hot" in out and "75.0%" in out
        assert "plan-op seconds (cumulative):" in out
        assert "  project         1.5000s   75.0%" in out
        assert json.loads(saved.read_text()) == payload
        assert main(["diff", str(saved), str(saved)]) == 0

    def test_mem_renders_processes_caches_and_slabs(self, monkeypatch,
                                                    capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_fetch_json", lambda *_: {
            "processes": [{"role": "serve", "pid": 12,
                           "rss_bytes": 3 * 2 ** 20}],
            "caches": {"answer_cache": {"size": 3, "bytes": 2048,
                                        "hits": 1, "misses": 2}},
            "shard_plan": {"num_entities": 100000, "dim": 24,
                           "total_bytes": 3 * 2 ** 20,
                           "prepared_bytes": 2 ** 20,
                           "shards": [{"shard": 0, "rows": 50000,
                                       "bytes": 1024}]}})
        assert main(["get", "mem", "h:1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "process RSS:",
            "  serve      pid 12       3.0MiB",
            "caches:",
            "  answer_cache              3 entries      2.0KiB  hits=1 "
            "misses=2",
            "shard plan: 100,000 x 24 entities, 3.0MiB published "
            "(1.0MiB of it the filter's float32 table)",
            "  shard 0: 50,000 rows  1.0KiB"]


class TestShardsFallbackIsSaid:
    """``--shards N`` that cannot shard says why in one line and runs
    in-process, as ``train`` does."""

    def _common(self, tmp_path, method="HaLk"):
        common = ["--dataset", "FB237", "--method", method, "--dim", "8",
                  "--scale", "0.3", "--model-dir", str(tmp_path)]
        main(["train", *common, "--epochs", "1", "--queries", "5"])
        return common

    @staticmethod
    def _no_shared_memory(monkeypatch):
        import repro.dist
        import repro.dist.ranker
        for module in (repro.dist, repro.dist.ranker):
            monkeypatch.setattr(module, "dist_available", lambda: False)

    def test_evaluate_without_shared_memory(self, tmp_path, monkeypatch,
                                            capsys):
        common = self._common(tmp_path)
        self._no_shared_memory(monkeypatch)
        capsys.readouterr()
        assert main(["evaluate", *common, "--queries", "2",
                     "--shards", "2"]) == 0
        assert "shared memory unavailable; ranking in-process" in \
            capsys.readouterr().out

    def test_evaluate_model_without_sharding_spec(self, tmp_path, capsys):
        common = self._common(tmp_path, method="ConE")
        capsys.readouterr()
        assert main(["evaluate", *common, "--queries", "2",
                     "--shards", "2"]) == 0
        assert "ConE has no sharding spec; ranking in-process" in \
            capsys.readouterr().out

    def test_serve_without_shared_memory(self, tmp_path, monkeypatch,
                                         capsys):
        common = self._common(tmp_path)
        self._no_shared_memory(monkeypatch)
        capsys.readouterr()
        assert main(["serve", *common, "--queries", "3", "--repeat", "1",
                     "--shards", "2"]) == 0
        assert "shared memory unavailable; ranking in-process" in \
            capsys.readouterr().out
