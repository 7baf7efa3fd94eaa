import json
import signal
import socket
import subprocess
import sys
import time

import pytest
import requests

from mcard_registry.bench.cli import main as bench_main
from mcard_registry.graphstore import GraphStore
from mcard_registry.mcpserver import McpConfig, McpServer
from mcard_registry.registry import Registry
from mcard_registry.rest import RestConfig, RestServer

from conftest import card_dict, nodes_labelled


@pytest.fixture
def stack():
    registry = Registry()
    rest = RestServer(registry, RestConfig()).start()
    native = McpServer(McpConfig(backend="native"), registry).start()
    try:
        yield rest, native
    finally:
        native.stop()
        rest.stop()


def test_bench_cli_end_to_end(stack, tmp_path, capsys):
    rest, native = stack
    corpus = tmp_path / "corpus"
    out = tmp_path / "run.json"

    rc = bench_main([
        "generate", "--preset", "micro", "--seed", "5", "--cards", "3",
        "--experiments", "10", "--endpoint", rest.base_url, "--out-dir", str(corpus),
    ])
    assert rc == 0
    assert (corpus / "manifest.json").exists()

    rc = bench_main([
        "run", "--target", "rest", "--op", "retrieve", "--n", "4",
        "--endpoint", f"127.0.0.1:{rest.port}", "--corpus-dir", str(corpus),
        "--out", str(out),
    ])
    assert rc == 0
    run_data = json.loads(out.read_text())
    assert len(run_data["samples"]) == 4

    rc = bench_main([
        "run", "--target", "native-mcp", "--op", "search", "--n", "3",
        "--endpoint", f"127.0.0.1:{native.port}", "--corpus-dir", str(corpus),
        "--out", str(tmp_path / "native.json"),
    ])
    assert rc == 0

    csv_path = tmp_path / "run.csv"
    rc = bench_main(["report", "--in", str(out), "--format", "csv", "--out", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("target,operation,sample_idx,")

    summary_path = tmp_path / "run.summary.json"
    rc = bench_main(["report", "--in", str(out), "--format", "summary-json",
                     "--out", str(summary_path)])
    assert rc == 0
    summary = json.loads(summary_path.read_text())
    assert summary["n"] == 4
    assert "total_ms" in summary["components"]

    capsys.readouterr()
    rc = bench_main(["compare", str(summary_path), str(tmp_path / "native.json")])
    assert rc == 0
    table = capsys.readouterr().out
    assert "native_mcp/rest" in table
    assert "ratio" in table


def test_bench_cli_run_without_manifest(tmp_path, capsys):
    rc = bench_main([
        "run", "--target", "rest", "--op", "retrieve", "--n", "1",
        "--endpoint", "127.0.0.1:1", "--corpus-dir", str(tmp_path / "nope"),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2


def test_bench_cli_generate_files_only(tmp_path):
    rc = bench_main([
        "generate", "--preset", "micro", "--seed", "9", "--cards", "2",
        "--out-dir", str(tmp_path / "files"),
    ])
    assert rc == 0
    assert not (tmp_path / "files" / "manifest.json").exists()
    assert len(list((tmp_path / "files" / "cards").glob("*.json"))) == 2


def test_wanproxy_cli_requires_args():
    from mcard_registry.wanproxy import main as wanproxy_main
    with pytest.raises(SystemExit):
        wanproxy_main([])


def _start_all(*extra_args):
    """Start ``mcard-server all`` on free ports; returns the process and the
    REST base URL once REST answers /health."""
    ports = []
    for _ in range(3):
        probe = socket.create_server(("127.0.0.1", 0))
        ports.append(probe.getsockname()[1])
        probe.close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "mcard_registry.server_cli", "all",
         "--rest-port", str(ports[0]), "--native-port", str(ports[1]),
         "--layered-port", str(ports[2]), *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    base = f"http://127.0.0.1:{ports[0]}"
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            if requests.get(f"{base}/health", timeout=1).status_code == 200:
                return proc, base
        except requests.RequestException:
            time.sleep(0.2)
    proc.kill()
    proc.communicate()
    pytest.fail("REST server did not come up")


def _stop(proc, sig) -> int:
    proc.send_signal(sig)
    try:
        return proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    finally:
        proc.communicate()


def test_server_cli_all_subprocess():
    proc, _ = _start_all()
    assert _stop(proc, signal.SIGINT) == 0


def test_server_cli_saves_snapshot_on_sigterm(tmp_path):
    snapshot = tmp_path / "store.jsonl"
    proc, base = _start_all("--snapshot", str(snapshot))
    try:
        resp = requests.post(f"{base}/modelcard", json=card_dict(), timeout=10)
        assert resp.status_code == 201
        mc_id = resp.json()["mc_id"]
    finally:
        code = _stop(proc, signal.SIGTERM)
    assert code == 0
    store = GraphStore.snapshot_load(str(snapshot))
    assert [n.properties["external_id"] for n in nodes_labelled(store, "ModelCard")] == [mc_id]

    proc, base = _start_all("--snapshot", str(snapshot))
    try:
        assert requests.get(f"{base}/modelcard/{mc_id}", timeout=10).status_code == 200
    finally:
        code = _stop(proc, signal.SIGTERM)
    assert code == 0


def _snapshot_dir(tmp_path):
    return str(tmp_path)  # exists, but a directory cannot be read as a file


def _corrupt_snapshot(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"format": "mcgraph-snapshot", "version": 1}\n')
    return str(path)


@pytest.mark.parametrize("argv,message", [
    (["mcp", "--backend", "layered"], "needs rest_base_url"),
    (["mcp", "--backend", "layered", "--rest-base", "localhost:8080"],
     "must be http://host:port"),
    (["mcp", "--backend", "layered", "--rest-base", "ftp://127.0.0.1:8080"],
     "must be http://host:port"),
    (["rest", "--snapshot", _snapshot_dir], "cannot read snapshot"),
    (["mcp", "--snapshot", _corrupt_snapshot], "ordinal counters"),
    (["all", "--snapshot", _corrupt_snapshot], "ordinal counters"),
], ids=["layered-without-rest-base", "rest-base-without-scheme", "rest-base-not-http",
        "unreadable-snapshot", "corrupt-snapshot-mcp", "corrupt-snapshot-all"])
def test_server_cli_bad_setting_is_one_line_and_exit_2(tmp_path, capsys, argv, message):
    from mcard_registry.server_cli import main as server_main
    # each setting fails before a port is bound
    assert server_main([arg(tmp_path) if callable(arg) else arg for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("mcard-server: error: "), err
    assert message in err


def test_all_help_screens_render():
    from mcard_registry.server_cli import main as server_main
    from mcard_registry.wanproxy import main as wanproxy_main
    for entry, commands in (
        (bench_main, ["generate", "run", "report", "compare"]),
        (server_main, ["rest", "mcp", "all"]),
        (wanproxy_main, []),
    ):
        with pytest.raises(SystemExit) as excinfo:
            entry(["--help"])
        assert excinfo.value.code == 0
        for command in commands:
            with pytest.raises(SystemExit) as excinfo:
                entry([command, "--help"])
            assert excinfo.value.code == 0
