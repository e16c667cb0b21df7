"""Tests for the command-line interface and SVG visualization."""

import pytest

from repro.cli import build_parser, main
from repro.datasets import intel_lab
from repro.graph import UncertainGraph, write_edge_list
from repro.viz import render_network_svg, save_network_svg


@pytest.fixture
def edge_file(tmp_path, diamond):
    path = tmp_path / "g.edges"
    write_edge_list(diamond, path)
    return str(path)


class TestCliDatasets:
    def test_list_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "twitter" in out and "intel-lab" in out

    def test_summarize_dataset(self, capsys):
        assert main(["datasets", "intel-lab"]) == 0
        out = capsys.readouterr().out
        assert "nodes / edges:      54" in out
        assert "edge probability" in out


@pytest.mark.parametrize("argv", [
    ["reliability", "--source", "0", "--target", "3", "--samples", "0"],
    ["maximize", "--source", "0", "--target", "3", "--samples", "-3"],
    ["maximize", "--source", "0", "--target", "3",
     "--evaluation-samples", "0"],
    ["serve", "--samples", "0"],
    ["serve", "--evaluation-samples", "x"],
    ["index", "build", "--store", "s", "--samples", "100", "0"],
    ["datasets", "--seed", "-1"],
    ["reliability", "--source", "0", "--target", "3", "--seed", "-1"],
    ["maximize", "--source", "0", "--target", "3", "--seed", "-1"],
    ["mrp", "--source", "0", "--target", "3", "--seed", "-1"],
    ["serve", "--seed", "-1"],
    ["index", "build", "--store", "s", "--seed", "-1"],
    ["maximize", "--source", "0", "--target", "3", "-k", "0"],
    ["mrp", "--source", "0", "--target", "3", "-k", "0"],
    ["maximize", "--source", "0", "--target", "3", "-l", "0"],
    ["serve", "-l", "0"],
    ["maximize", "--source", "0", "--target", "3", "-r", "0"],
    ["maximize", "--source", "0", "--target", "3", "-r", "-1"],
    ["serve", "-r", "-1"],
    ["maximize", "--source", "0", "--target", "3", "--h", "-1"],
    ["mrp", "--source", "0", "--target", "3", "--h", "-1"],
    ["maximize", "--source", "0", "--target", "3", "--zeta", "1.5"],
    ["maximize", "--source", "0", "--target", "3", "--zeta", "nan"],
    # The fixed new-edge model both commands build needs zeta > 0.
    ["maximize", "--source", "0", "--target", "3", "--zeta", "0"],
    ["mrp", "--source", "0", "--target", "3", "--zeta", "1.5"],
    ["mrp", "--source", "0", "--target", "3", "--zeta", "0"],
    # Serving knobs: a batch holds >= 1 query, a pool >= 1 process,
    # windows, admission bounds and replay budgets are >= 0, and the
    # heartbeat interval is > 0.
    ["serve", "--max-batch", "0"],
    ["serve", "--max-wait-ms", "-1"],
    ["serve", "--max-pending", "-5"],
    ["serve", "--shards", "-3"],
    ["serve", "--shards", "2", "--heartbeat-interval-s", "0"],
    ["serve", "--shards", "2", "--replay-budget", "-1"],
])
def test_numeric_flags_out_of_range_are_usage_errors(capsys, edge_file, argv):
    """Every bounded numeric flag (sample budgets, seeds, -k, -r, -l,
    --h, zeta, serving knobs) rejects out-of-range and malformed values at parse time:
    an argparse usage error with exit 2, not a ValueError from deep
    inside the query layer."""
    graph = [] if argv[0] == "datasets" else ["--file", edge_file]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *graph])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "must be in" in err or "expected int" in err


class TestCliReliability:
    def test_estimate_from_file(self, capsys, edge_file):
        code = main([
            "reliability", "--file", edge_file,
            "--source", "0", "--target", "3",
            "--samples", "4000", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("≈")[1].split()[0])
        assert value == pytest.approx(0.652, abs=0.04)

    @pytest.mark.parametrize("estimator", ["mc", "rss", "lazy", "adaptive"])
    def test_all_estimators(self, capsys, edge_file, estimator):
        code = main([
            "reliability", "--file", edge_file,
            "--source", "0", "--target", "3",
            "--estimator", estimator, "--samples", "500",
        ])
        assert code == 0

    def test_bounds_flag(self, capsys, edge_file):
        code = main([
            "reliability", "--file", edge_file,
            "--source", "0", "--target", "3",
            "--samples", "2000", "--bounds",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "certified bounds" in out


class TestCliMaximize:
    def test_maximize_on_file(self, capsys, edge_file):
        code = main([
            "maximize", "--file", edge_file,
            "--source", "0", "--target", "3",
            "-k", "1", "--zeta", "0.9",
            "-r", "4", "-l", "5", "--samples", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "+ edge 0 -> 3" in out
        assert "gain +" in out

    def test_maximize_method_choice(self, capsys, edge_file):
        code = main([
            "maximize", "--file", edge_file,
            "--source", "0", "--target", "3",
            "-k", "1", "--method", "mrp", "-r", "4", "-l", "5",
        ])
        assert code == 0

    def test_maximize_on_dataset(self, capsys):
        code = main([
            "maximize", "--dataset", "lastfm", "--nodes", "150",
            "--source", "0", "--target", "60",
            "-k", "2", "-r", "8", "-l", "8", "--samples", "100",
        ])
        assert code == 0


class TestCliMrp:
    def test_mrp_improvement(self, capsys, edge_file):
        code = main([
            "mrp", "--file", edge_file,
            "--source", "0", "--target", "3",
            "-k", "1", "--zeta", "0.9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.9000" in out

    def test_mrp_no_improvement(self, capsys, edge_file):
        code = main([
            "mrp", "--file", edge_file,
            "--source", "0", "--target", "3",
            "-k", "1", "--zeta", "0.01",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "no addition improves" in out


class TestCliParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_graph_source_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "reliability", "--dataset", "lastfm", "--file", "x",
                "--source", "0", "--target", "1",
            ])


class TestSvg:
    def test_render_sensor_network(self):
        graph = intel_lab.build()
        positions = intel_lab.sensor_positions()
        svg = render_network_svg(
            graph, positions,
            new_edges=[(2, 46, 0.33)],
            highlight_nodes=[21, 46],
        )
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert 'stroke-dasharray' in svg      # the new edge
        assert svg.count("<circle") == 54
        assert '#ff7f0e' in svg               # highlighted nodes

    def test_min_probability_filter(self):
        g = UncertainGraph.from_edges([(0, 1, 0.05), (1, 2, 0.9)])
        positions = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
        svg = render_network_svg(g, positions, min_probability=0.5)
        assert svg.count("<line") == 1

    def test_save_to_file(self, tmp_path):
        g = UncertainGraph.from_edges([(0, 1, 0.5)])
        path = tmp_path / "net.svg"
        save_network_svg(str(path), g, {0: (0, 0), 1: (3, 4)})
        content = path.read_text()
        assert content.startswith("<svg")

    def test_degenerate_positions(self):
        g = UncertainGraph.from_edges([(0, 1, 0.5)])
        svg = render_network_svg(g, {0: (1.0, 1.0), 1: (1.0, 1.0)})
        assert "<svg" in svg  # no division by zero
