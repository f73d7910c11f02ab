"""The store operator CLI: inspect, checkpoint, compact, archive-query."""

import hashlib
import io
import json

from repro.store import Checkpoint, DurableStore
from repro.tools.store import main
from repro.wfms import Activity, Engine, ProcessDefinition


def build_store_dir(tmp_path, instances=5):
    directory = str(tmp_path / "store")
    store = DurableStore(
        directory, checkpoint_every_records=4, compact_on_checkpoint=False
    )
    engine = Engine(store=store)
    engine.register_program("p", lambda ctx: 0)
    d = ProcessDefinition("Flow")
    d.add_activity(Activity("A", program="p"))
    d.add_activity(Activity("B", program="p"))
    d.connect("A", "B")
    engine.register_definition(d)
    for __ in range(instances):
        engine.start_process("Flow")
        engine.run()
    engine.close()
    return directory


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_inspect(self, tmp_path):
        directory = build_store_dir(tmp_path)
        code, text = run_cli("inspect", directory)
        assert code == 0
        assert "journal:" in text
        assert "checkpoints:" in text
        assert "replay debt:" in text
        assert "archive: 5 roots" in text

    def test_checkpoint_validates_files(self, tmp_path):
        directory = build_store_dir(tmp_path)
        code, text = run_cli("checkpoint", directory)
        assert code == 0
        assert "VALID" in text
        # corrupt every checkpoint: the command reports failure
        import glob
        import os

        for path in glob.glob(os.path.join(directory, "checkpoint-*.json")):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{ torn")
        code, text = run_cli("checkpoint", directory)
        assert code == 1
        assert "CORRUPT" in text

    def test_compact_drops_covered_segments(self, tmp_path):
        directory = build_store_dir(tmp_path)
        code, text = run_cli("compact", directory)
        assert code == 0
        assert "compacted to offset" in text
        # a second compact finds nothing more to drop
        code, text = run_cli("compact", directory)
        assert code == 0
        assert "dropped 0 segment(s)" in text

    def test_compact_stops_at_the_oldest_retained_checkpoint(self, tmp_path):
        """The CLI compacts to the same floor the engine does online:
        recovery may have to fall back to the older snapshot."""
        directory = build_store_dir(tmp_path)
        store = DurableStore(directory)
        store.attach()
        oldest, newest = [
            Checkpoint.load(path).offset for path in store.checkpoint_files()
        ]
        store.close()
        assert oldest < newest
        code, text = run_cli("compact", directory)
        assert code == 0
        assert "compacted to offset %d:" % oldest in text

    def test_compact_without_checkpoint_fails_cleanly(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore(directory)
        store.attach()
        store.close()
        code, text = run_cli("compact", directory)
        assert code == 1
        assert "no durable checkpoint" in text

    def test_archive_query_listing_and_filters(self, tmp_path):
        directory = build_store_dir(tmp_path, instances=3)
        code, text = run_cli("archive-query", directory)
        assert code == 0
        assert text.count("Flow") == 3
        code, text = run_cli(
            "archive-query", directory, "--definition", "Flow"
        )
        assert text.count("rc=0") == 3
        code, text = run_cli(
            "archive-query", directory, "--definition", "Nope"
        )
        assert text == ""
        code, text = run_cli("archive-query", directory, "--outcomes")
        assert code == 0
        assert '"0": 3' in text

    def test_archive_query_by_id(self, tmp_path):
        directory = build_store_dir(tmp_path, instances=1)
        code, text = run_cli("archive-query", directory, "--id", "pi-0001")
        assert code == 0
        assert '"root": "pi-0001"' in text
        code, text = run_cli("archive-query", directory, "--id", "pi-9999")
        assert code == 1
        assert "not archived" in text

    def test_archive_query_by_id_prints_the_inline_entry(self, tmp_path):
        """A root's entry prints byte for byte as when the archive kept
        the audit slice inline: the digest is of that output."""
        directory = str(tmp_path / "store")
        engine = Engine(store=DurableStore(directory))
        engine.register_program("p", lambda ctx: 0)
        d = ProcessDefinition("Flow")
        d.add_activity(Activity("A", program="p"))
        engine.register_definition(d)
        engine.start_process("Flow")
        engine.run()
        engine.close()
        code, text = run_cli("archive-query", directory, "--id", "pi-0001")
        assert code == 0
        assert len(json.loads(text)["audit"]) == 6
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "56f238583f2755dab35ae61e1876f0d8774e5e2af0fb1abd87c69cb90bfe922b"
        )

    def test_bad_directory_fails_cleanly(self, tmp_path):
        (tmp_path / "store" / "journal").mkdir(parents=True)
        (tmp_path / "store" / "journal" / "MANIFEST.json").write_text("{nope")
        code, text = run_cli("inspect", str(tmp_path / "store"))
        assert code == 1
        assert "error:" in text
