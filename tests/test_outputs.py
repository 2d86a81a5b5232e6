"""The one atomic file writer and the one CSV encoder behind every output."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgwshape as sg
import sgwshape.outputs as outputs
from sgwshape.outputs import _csv_bytes
from sgwshape.svgplot import heatmap, line_plot

WRITERS = {
    "write_mesh": lambda path: sg.write_mesh(sg.make_synthetic("unit_sphere", 0), path),
    "write_signature_csv": lambda path: sg.write_signature_csv(
        sg.SignatureMatrix(np.arange(6.0).reshape(2, 3), R=1), path
    ),
    "ReconstructionReport.write_csv": lambda path: sg.ReconstructionReport(
        ks=(1, 4), nmse=(1.0, 0.25)
    ).write_csv(path),
    "line_plot": lambda path: line_plot([("a", [1, 2, 3], [0.5, 0.2, 0.1])], path),
    "heatmap": lambda path: heatmap([[0.1, 0.5], [None, 0.9]], ["r1", "r2"], ["c1", "c2"], path),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_creates_missing_parent(tmp_path, name):
    path = tmp_path / "new" / "nested" / "out.dat"
    WRITERS[name](path)
    assert path.is_file() and path.stat().st_size > 0


@pytest.mark.parametrize("name", WRITERS)
def test_failed_rename_leaves_the_old_file(tmp_path, monkeypatch, name):
    def failing_replace(src, dst):
        raise OSError("rename refused")

    path = tmp_path / "out.dat"
    path.write_bytes(b"previous contents")
    monkeypatch.setattr(outputs.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        WRITERS[name](path)
    assert path.read_bytes() == b"previous contents"
    assert list(tmp_path.iterdir()) == [path]


def quoted(cell):
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


CELLS = st.text(alphabet=st.sampled_from('ab1.-e ,"\n\r'), max_size=6)
# a row of one empty cell is an empty line, which csv.reader reads as no cells
ROWS = st.lists(
    st.lists(CELLS, min_size=1, max_size=4).filter(lambda row: row != [""]),
    min_size=1, max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_csv_bytes_is_the_cell_by_cell_rule(rows):
    encoded = _csv_bytes(rows)
    assert encoded == "".join(",".join(map(quoted, row)) + "\n" for row in rows).encode()
    assert list(csv.reader(io.StringIO(encoded.decode(), newline=""))) == rows
