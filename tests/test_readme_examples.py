"""README's batch examples track a live feature.

The CLI walkthrough and the ``repro run`` config in README.md are run as
written, with their ``/tmp/`` paths moved under a temporary directory.
A seed voxel outside the tracking criterion still exits 0 — with an
all-zero track — so each example's track must grow at least one voxel.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.cache.store import ArtifactStore
from repro.cli import main
from repro.run import PipelineRunner, RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _bash_blocks() -> list[str]:
    return re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)


def _walkthrough() -> dict[str, list[str]]:
    """The first bash block running ``repro track``: argv per subcommand."""
    block = next(b for b in _bash_blocks() if "repro track" in b)
    commands = {}
    for line in block.splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("repro "):
            argv = shlex.split(line)[1:]
            commands[argv[0]] = argv
    return commands


def _run_config_text() -> str:
    """The JSON written by the block's ``cat > /tmp/run.json`` heredoc."""
    block = next(b for b in _bash_blocks() if "cat > /tmp/run.json" in b)
    return re.search(r"<< 'EOF'\n(.*?)\nEOF", block, re.S).group(1)


def _local(argv: list[str], root: Path) -> list[str]:
    return [arg.replace("/tmp/", f"{root}/") for arg in argv]


@pytest.fixture(scope="module")
def readme_sequence(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme")
    assert main(_local(_walkthrough()["generate"], root)) == 0
    return root


def test_run_config_tracks_the_seeded_feature(readme_sequence):
    config = json.loads(_run_config_text().replace("/tmp/", f"{readme_sequence}/"))
    config["stages"] = ["classify", "track"]
    run_dir = readme_sequence / "run"
    PipelineRunner.create(RunConfig.from_dict(config), run_dir).run()
    store = ArtifactStore(run_dir / "store")
    with open(run_dir / "manifest.json") as fh:
        tasks = json.load(fh)["stages"]["track"]["tasks"]
    grown = [int(store.get_array(info["key"]).sum()) for info in tasks.values()]
    assert len(grown) == 13
    assert grown[0] > 0, "the README seed voxel lies outside the classified ring"


def test_cli_track_example_tracks_the_seeded_feature(readme_sequence):
    commands = _walkthrough()
    assert main(_local(commands["train-iatf"], readme_sequence)) == 0
    out = readme_sequence / "tracked.npy"
    assert main(_local(commands["track"], readme_sequence) + ["--out", str(out)]) == 0
    masks = np.load(out)
    assert masks.shape[0] == 13
    assert masks[0].any(), "the README seed voxel lies outside the IATF criterion"
