"""Process hygiene of the fleet, and compare.py's verdicts."""

import os

import pytest

from compare import spread, verdict
from nodes import Fleet, NodeStartError


def test_a_node_that_never_announces_a_port_surfaces_its_stderr():
    with Fleet() as fleet:
        root = fleet.root
        with pytest.raises(NodeStartError) as error:
            fleet.spawn("primary")  # --data-dir is required: argparse exits 2
        assert "--data-dir" in str(error.value)
        assert fleet.pids() == []
    assert not root.exists()


def test_fleet_stops_its_nodes_and_removes_its_files_on_an_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with Fleet() as fleet:
            root = fleet.root
            node = fleet.spawn("primary", "--data-dir", fleet.directory("d"))
            pid = node.pid
            assert os.getpgid(pid) == pid  # its own process group
            raise RuntimeError("boom")
    assert not root.exists()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_verdicts():
    steady_a, steady_b = [100.0, 101.0, 99.0], [100.5, 99.5, 100.0]
    assert verdict(steady_a, steady_b, "higher", 0.05) == "same"
    assert verdict(steady_a, [80.0, 81.0, 79.0], "higher", 0.05) == "worse"
    assert verdict(steady_a, [80.0, 81.0, 79.0], "lower", 0.05) == "better"
    assert verdict(steady_a, [120.0, 121.0, 119.0], "higher", 0.05) == "better"
    assert verdict(steady_a, [120.0, 121.0, 119.0], "lower", 0.05) == "worse"
    # A side whose own runs disagree by more than the bound decides nothing.
    assert verdict([100.0, 60.0, 140.0], [80.0, 81.0, 79.0], "higher", 0.05) == "unresolved"
    assert spread([5.0]) == 0.0
