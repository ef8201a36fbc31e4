"""The input contract: the three CSV parsers (adjacency, observations, case
reports) read through one reader, so they agree on blank lines and on the
line an error names; a config error names its field once; and ``simulate``
checks its noise flag. A malformed input is a ``ValueError`` naming the line
or the field, which the CLI turns into exit 2. Misspelt config keys at every
level are cases of ``tests/test_cli.py``'s invalid-config table.
"""
import numpy as np
import pytest

from epiprofiler.cli import _load_dataset_csv
from epiprofiler.data_ingest import load_case_series
from epiprofiler.experiments import ConfigError, experiment_file_from_dict
from epiprofiler.network import Network, generate_erdos_renyi, load_adjacency
from epiprofiler.simulator import EpidemicParams, InitialCondition, simulate

AB = Network(np.array([[0, 1], [1, 0]]), labels=["a", "b"])

# Each parser as a function of the path, a valid file's lines, and what a
# load yields, comparable with ==.
PARSERS = {
    "adjacency": (
        load_adjacency,
        ["a,b", "a,0,1", "b,1,0"],
        lambda net: (net.labels, net.indptr.tolist(), net.indices.tolist()),
    ),
    "observations": (
        lambda path: _load_dataset_csv(path, AB),
        ["node_label,value", "a,1", "b,2.5"],
        lambda values: values.tolist(),
    ),
    "cases": (
        load_case_series,
        ["date,region,cumulative_cases", "2003-03-17,a,1", "2003-03-18,a,2", "2003-03-17,b,0",
         "2003-03-18,b,0"],
        lambda series: (series.regions, series.dates, series.cumulative.tolist()),
    ),
}

# Per parser: a file whose first data row holds a quoted cell over two
# physical lines, and whose next row, on line 4 (line 5 for the adjacency
# file, whose label row spans two lines too), is malformed.
QUOTED_NEWLINE = {
    "adjacency": ('"a\na",b\n"a\na",0,1\nb,1,2\n', "line 5"),
    "observations": ('node_label,value\n"a\nb",1\nb,-1\n', "line 4"),
    "cases": ('date,region,cumulative_cases\n2003-03-17,"a\nb",5\n2003-03-17,c,-1\n', "line 4"),
}

# Lines with no non-blank cell: empty, whitespace-only, and blank cells.
BLANK_LINES = ["", "  \t", " , ", ",,"]

def write(tmp_path, text: str):
    path = tmp_path / "input.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("parser", PARSERS)
def test_error_after_quoted_newline_names_the_physical_line(tmp_path, parser):
    text, line = QUOTED_NEWLINE[parser]
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=f"{path}: {line}:"):
        PARSERS[parser][0](path)


@pytest.mark.parametrize("parser", PARSERS)
def test_blank_lines_are_skipped(tmp_path, parser):
    load, lines, view = PARSERS[parser]
    want = view(load(write(tmp_path, "\n".join(lines) + "\n")))
    # Blank lines before the header, between rows and at the end.
    padded = [*BLANK_LINES, lines[0], *BLANK_LINES, *lines[1:], *BLANK_LINES]
    assert view(load(write(tmp_path, "\n".join(padded) + "\n"))) == want


@pytest.mark.parametrize("parser", PARSERS)
def test_oversized_cell_names_its_line(tmp_path, parser):
    # csv refuses a cell above its field limit (128 KiB).
    load, lines, _ = PARSERS[parser]
    path = write(tmp_path, f"{lines[0]}\n{'x' * 200_000}\n")
    with pytest.raises(ValueError, match=f"{path}: line 2: field larger than field limit"):
        load(path)


@pytest.mark.parametrize("parser", ["observations", "cases"])
def test_wrong_header_names_its_line(tmp_path, parser):
    # The adjacency file has no fixed header: its first row is the labels.
    load, lines, _ = PARSERS[parser]
    path = write(tmp_path, "\n" + "\n".join(["x,y,z", *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match=f"{path}: line 2:"):
        load(path)


@pytest.mark.parametrize("text,line,problem", [
    ("a,b\na,0\nb,1,0\n", 2, "expected 'a' and 2 cells, got 'a' and 1"),
    ("a,b\na,0,1\nc,1,0\n", 3, "expected 'b' and 2 cells, got 'c' and 2"),
    ("a,b\n\na,0,1\nb,1,2\n", 4, "cell (b, b) = '2' is not 0 or 1"),
    ("a,b,c\na,0,1,0\nb,1,x,\nc,0,y,0\n", 3, "cell (b, b) = 'x' is not 0 or 1"),
], ids=["short-row", "wrong-label", "bad-cell", "first-bad-cell"])
def test_adjacency_row_error_names_its_line(tmp_path, text, line, problem):
    path = write(tmp_path, text)
    with pytest.raises(ValueError) as info:
        load_adjacency(path)
    assert str(info.value) == f"{path}: line {line}: {problem}"


@pytest.mark.parametrize("count,problem", [
    ("-1", "negative count -1"),
    ("1" + "0" * 400, f"count 1{'0' * 400} is beyond float range"),
], ids=["negative", "beyond-float-range"])
def test_case_count_error_names_its_line(tmp_path, count, problem):
    # A count must be a non-negative int that a float holds.
    path = write(tmp_path, f"date,region,cumulative_cases\n2003-03-17,a,1\n2003-03-18,a,{count}\n")
    with pytest.raises(ValueError) as info:
        load_case_series(path)
    assert str(info.value) == f"{path}: line 3: {problem}"


def test_observable_type_error_has_one_prefix():
    raw = {"replicates": 1, "alpha": 0.16, "beta": 0.04, "gamma": 0.2, "decays": [{"kind": "naive"}]}
    with pytest.raises(ConfigError) as info:
        experiment_file_from_dict({**raw, "observable": True}, where="cfg.json")
    assert str(info.value) == "cfg.json: field 'observable' has unexpected type bool"


@pytest.mark.parametrize("noise", ["no", 1, np.bool_(True)], ids=repr)
def test_simulate_rejects_a_non_bool_noise_flag(noise):
    net = generate_erdos_renyi(6, 2.0, seed=1)
    with pytest.raises(ValueError, match="noise must be a boolean"):
        simulate(net, EpidemicParams(0.4, 0.2, 0.1), InitialCondition(0, 5.0, 600.0), 2.0, noise=noise)
